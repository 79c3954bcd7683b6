module Itbl = Dk_util.Itbl

type block = { offset : int; size : int; level : int }

type t = {
  reg : Region.t;
  total : int;
  min_block : int;
  levels : int; (* level 0 = whole region; level [levels-1] = min blocks *)
  free_lists : int list array; (* per level: offsets of free blocks *)
  allocated : int Itbl.t; (* offset -> level, for double-free checks *)
  mutable live : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2_loop v acc = if v <= 1 then acc else log2_loop (v lsr 1) (acc + 1)
let log2 n = log2_loop n 0

let create ?(min_block = 64) reg =
  let total = Region.size reg in
  if not (is_pow2 total) then
    invalid_arg "Arena.create: region size must be a power of two";
  if not (is_pow2 min_block) || min_block > total then
    invalid_arg "Arena.create: bad min_block";
  let levels = log2 (total / min_block) + 1 in
  let free_lists = Array.make levels [] in
  free_lists.(0) <- [ 0 ];
  {
    reg;
    total;
    min_block;
    levels;
    free_lists;
    allocated = Itbl.create 64;
    live = 0;
  }
  [@@hot.alloc
    "the per-level free lists and bookkeeping table are built once per \
     region, when it is mapped"]

let region t = t.reg
let block_size t level = t.total lsr level

(* Smallest level (largest index) whose block size still fits [n].
   The descent is a toplevel recursion so it does not close over the
   request size. *)
let rec level_descend t n level =
  if level + 1 < t.levels && block_size t (level + 1) >= n then
    level_descend t n (level + 1)
  else level

let level_for t n =
  if n > t.total then None else Some (level_descend t n 0)

let take_free t level =
  match t.free_lists.(level) with
  | [] -> None
  | off :: rest ->
      t.free_lists.(level) <- rest;
      Some off

(* Find a free block at [level], splitting larger blocks as needed. *)
let rec obtain t level =
  if level < 0 then None
  else
    match take_free t level with
    | Some off -> Some off
    | None -> (
        match obtain t (level - 1) with
        | None -> None
        | Some off ->
            (* Split: keep the low half, free the high half at this level. *)
            let half = block_size t level in
            t.free_lists.(level) <- (off + half) :: t.free_lists.(level);
            Some off)
  [@@hot.alloc "splitting a block conses the freed high half onto its level"]

let alloc t n =
  if n < 1 then invalid_arg "Arena.alloc: size must be >= 1";
  match level_for t n with
  | None -> None
  | Some level -> (
      match obtain t level with
      | None -> None
      | Some offset ->
          let size = block_size t level in
          Itbl.replace t.allocated offset level;
          t.live <- t.live + size;
          Some { offset; size; level })
  [@@hot.alloc
    "the block descriptor is the buddy allocator's return surface: one \
     small record per managed allocation"]

(* One fused membership-test-and-remove pass over a level's free list
   (the old [List.mem] + [List.filter] walked it twice and closed over
   the buddy offset). [None] means the buddy is not free at this
   level. *)
let rec take_buddy buddy = function
  | [] -> None
  | o :: rest ->
      if o = buddy then Some rest
      else (
        match take_buddy buddy rest with
        | Some rest' -> Some (o :: rest')
        | None -> None)
  [@@hot.alloc
    "rebuilds the level's free-list spine only when the buddy is found \
     and the blocks coalesce"]

let rec insert_or_merge t level offset =
  let size = block_size t level in
  let buddy = offset lxor size in
  match if level > 0 then take_buddy buddy t.free_lists.(level) else None with
  | Some rest ->
      t.free_lists.(level) <- rest;
      insert_or_merge t (level - 1) (min offset buddy)
  | None -> t.free_lists.(level) <- offset :: t.free_lists.(level)
  [@@hot.alloc "buddy coalescing conses the merged block back onto its level"]

let free t b =
  (match Itbl.find_opt t.allocated b.offset with
  | Some level when level = b.level -> ()
  | Some _ | None ->
      invalid_arg "Arena.free: not an outstanding block (double free?)");
  Itbl.remove t.allocated b.offset;
  t.live <- t.live - b.size;
  insert_or_merge t b.level b.offset

let live_bytes t = t.live
let is_quiescent t = t.live = 0 && t.free_lists.(0) <> []
