type stats = {
  allocs : int;
  releases : int;
  deferred_releases : int;
  live_bytes : int;
  region_count : int;
  region_bytes : int;
}

type leak = { leak_region : int; leak_off : int; leak_len : int }

module Metrics = Dk_obs.Metrics
module Itbl = Dk_util.Itbl

type t = {
  initial_region_size : int;
  max_total_bytes : int;
  on_new_region : Region.t -> unit;
  sanitize : bool;
  (* live allocations, for the shutdown leak sweep: packed
     (region lsl 32 | block offset) -> payload length. One immediate
     int key, not a (region, offset) tuple — a tuple key would
     allocate and hash polymorphically on every sanitized alloc and
     free (dk-hot: hot-poly). Only populated when sanitizing. *)
  live_allocs : int Itbl.t;
  mutable arenas : Arena.t list;
  mutable next_region_id : int;
  region_bytes : Metrics.gauge;
  allocs : Metrics.counter;
  releases : Metrics.counter;
  deferred_releases : Metrics.counter;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Class-wide obs instruments (aggregated across managers); each
   manager counts its [stats] into its own instances of them. The
   bytes-in-flight gauge is maintained with add/subtract at alloc and
   release so no per-event walk of the arenas is ever needed. *)
let m_allocs = Metrics.counter "mem.manager.allocs"
let m_releases = Metrics.counter "mem.manager.releases"
let m_deferred = Metrics.counter "mem.manager.deferred_releases"
let m_oom = Metrics.counter "mem.manager.alloc_failures"
let g_in_flight = Metrics.gauge "mem.manager.bytes_in_flight"
let g_region_bytes = Metrics.gauge "mem.manager.region_bytes"

(* Guard bytes on each side of a sanitized allocation. An overrun of
   the *requested* length lands in the canary even when the buddy
   allocator rounded the block up, so smashes are caught at the exact
   boundary the application was given. *)
let canary_len = 8
let canary_byte = '\xDB'
let poison_byte = '\xDD'

let create ?(initial_region_size = 1 lsl 20) ?(max_total_bytes = 1 lsl 28)
    ?(on_new_region = fun _ -> ()) ?(sanitize = Dk_check.enabled_from_env ())
    () =
  if not (is_pow2 initial_region_size) then
    invalid_arg "Manager.create: initial_region_size must be a power of two";
  {
    initial_region_size;
    max_total_bytes;
    on_new_region;
    sanitize;
    live_allocs = Itbl.create 16;
    arenas = [];
    next_region_id = 0;
    region_bytes = Metrics.gauge_instance g_region_bytes;
    allocs = Metrics.instance m_allocs;
    releases = Metrics.instance m_releases;
    deferred_releases = Metrics.instance m_deferred;
  }

let sanitized t = t.sanitize

(* Toplevel so the doubling walk does not close over the target. *)
let rec pow2_above n v = if v >= n then v else pow2_above n (v * 2)
let next_pow2 n = pow2_above n 1

let grow t want =
  let size = max t.initial_region_size (next_pow2 want) in
  if Metrics.gauge_value t.region_bytes + size > t.max_total_bytes then None
  else begin
    let reg = Region.create ~id:t.next_region_id ~size in
    t.next_region_id <- t.next_region_id + 1;
    Metrics.gauge_add t.region_bytes size;
    Region.pin reg;
    t.on_new_region reg;
    let arena = Arena.create reg in
    t.arenas <- t.arenas @ [ arena ];
    Some arena
  end
  [@@hot.alloc
    "mapping and pinning a new region happens once per growth step, \
     amortized over every allocation the region then serves"]

(* Toplevel so the guard-byte walk does not close over the store. *)
let rec count_smashed store i stop n =
  if i >= stop then n
  else
    count_smashed store (i + 1) stop
      (if Bytes.get store i <> canary_byte then n + 1 else n)

let check_canaries store ~region_id ~block_off ~data_off ~len =
  let below = count_smashed store block_off (block_off + canary_len) 0 in
  let above =
    count_smashed store (data_off + len) (data_off + len + canary_len) 0
  in
  if below > 0 || above > 0 then
    Dk_check.report Dk_check.Canary_smash
      (Printf.sprintf
         "canary smashed around allocation (region %d, off %d, len %d): %d \
          guard byte(s) below, %d above — out-of-bounds write on the data \
          path"
         region_id data_off len below above)
  [@@hot.alloc
    "the smash report formats only when guard bytes were actually \
     overwritten"]

(* Block offsets sit well inside 32 bits (regions are megabytes), so
   the pair packs losslessly; packed keys sort exactly like the
   (region, offset) pairs did, which keeps the leak sweep's order. *)
let live_key ~region_id ~off = (region_id lsl 32) lor (off land 0xffffffff)

let wrap t arena (block : Arena.block) len =
  let reg = Arena.region arena in
  let store = Region.store reg in
  let region_id = Region.id reg in
  let data_off =
    block.Arena.offset + if t.sanitize then canary_len else 0
  in
  if t.sanitize then begin
    Bytes.fill store block.Arena.offset canary_len canary_byte;
    Bytes.fill store (data_off + len) canary_len canary_byte;
    Itbl.replace t.live_allocs
      (live_key ~region_id ~off:block.Arena.offset)
      len
  end;
  (* [release] runs strictly after [buf] exists, so it can consult the
     buffer's deferral flag through this knot. *)
  let buf_ref = ref None in
  let release () =
    Metrics.incr t.releases;
    Metrics.gauge_add g_in_flight (-len);
    (match !buf_ref with
    | Some b when Buffer.was_deferred b -> Metrics.incr t.deferred_releases
    | Some _ | None -> ());
    if t.sanitize then begin
      Itbl.remove t.live_allocs (live_key ~region_id ~off:block.Arena.offset);
      check_canaries store ~region_id ~block_off:block.Arena.offset ~data_off
        ~len;
      (* Poison the whole block: stale reads through raw store access
         show 0xDD instead of plausible data. *)
      Bytes.fill store block.Arena.offset block.Arena.size poison_byte
    end;
    Arena.free arena block
  in
  let buf =
    Buffer.make_managed ~sanitize:t.sanitize ~store ~off:data_off ~len
      ~region_id ~release ()
  in
  buf_ref := Some buf;
  buf
  [@@hot.alloc
    "the release closure and its back-reference knot are the managed \
     allocation's teardown machinery, built once per buddy allocation"]

(* Toplevel so the first-fit walk does not close over the length. *)
let rec arenas_alloc len = function
  | [] -> None
  | arena :: rest -> (
      match Arena.alloc arena len with
      | Some block -> Some (arena, block)
      | None -> arenas_alloc len rest)
  [@@hot.alloc
    "the (arena, block) pair is the buddy allocator's internal return \
     surface: one small tuple per managed allocation, beside the buffer \
     descriptor [wrap] builds for it anyway"]

let try_arenas t len = arenas_alloc len t.arenas

let alloc_raw t want =
  match try_arenas t want with
  | Some _ as hit -> hit
  | None -> (
      match grow t want with
      | None -> None
      | Some arena -> (
          match Arena.alloc arena want with
          | Some block -> Some (arena, block)
          | None -> None))
  [@@hot.alloc
    "the (arena, block) pair is the buddy allocator's internal return \
     surface: one small tuple per managed allocation, beside the buffer \
     descriptor [wrap] builds for it anyway"]

let alloc t len =
  if len <= 0 then invalid_arg "Manager.alloc: size must be positive";
  let want = if t.sanitize then len + (2 * canary_len) else len in
  match alloc_raw t want with
  | None ->
      Metrics.incr m_oom;
      None
  | Some (arena, block) ->
      Metrics.incr t.allocs;
      Metrics.gauge_add g_in_flight len;
      Some (wrap t arena block len)

let alloc_exn t len =
  match alloc t len with
  | Some b -> b
  | None -> raise Out_of_memory

let alloc_string t s =
  match alloc t (max 1 (String.length s)) with
  | None -> None
  | Some b ->
      Buffer.blit_from_string s 0 b 0 (String.length s);
      if String.length s = Buffer.length b then Some b
      else begin
        (* Trim the view to the string's exact length. *)
        let v = Buffer.sub b 0 (String.length s) in
        Buffer.free b;
        Some v
      end

let sga_of_string t s =
  Option.map (fun b -> Sga.of_buffers [ b ]) (alloc_string t s)

let regions t = List.map Arena.region t.arenas

let stats t =
  {
    allocs = Metrics.value t.allocs;
    releases = Metrics.value t.releases;
    deferred_releases = Metrics.value t.deferred_releases;
    live_bytes = List.fold_left (fun acc a -> acc + Arena.live_bytes a) 0 t.arenas;
    region_count = List.length t.arenas;
    region_bytes = Metrics.gauge_value t.region_bytes;
  }

let check_leaks t =
  let leaks =
    Itbl.fold_sorted
      (fun key leak_len acc ->
        {
          leak_region = key lsr 32;
          leak_off = key land 0xffffffff;
          leak_len;
        }
        :: acc)
      t.live_allocs []
    |> List.rev
  in
  List.iter
    (fun l ->
      Dk_check.report Dk_check.Leak
        (Printf.sprintf
           "allocation never freed: region %d, off %d, len %d still live at \
            shutdown (pinned DMA memory cannot be reclaimed)"
           l.leak_region l.leak_off l.leak_len))
    leaks;
  leaks
