type ('c, 'a) t = {
  make : 'c -> int -> 'a;
  mutable all : 'a array; (* descriptor [id] at index [id] *)
  mutable free : int array; (* a stack of free ids in [0, nfree) *)
  mutable nfree : int;
}

let create make = { make; all = [||]; free = [||]; nfree = 0 }

(* Called only when no descriptor is free: the new ids are the whole
   free list, stacked so the lowest is taken first. *)
let grow t c =
  let n = Array.length t.all in
  let cap = if n = 0 then 4 else 2 * n in
  let old = t.all in
  t.all <- Array.init cap (fun id -> if id < n then old.(id) else t.make c id);
  t.free <- Array.init cap (fun i -> cap - 1 - i);
  t.nfree <- cap - n
  [@@hot.alloc
    "amortized doubling of a descriptor pool: each descriptor and its \
     timer are made once, then reused for every frame"]

let take t c =
  if t.nfree = 0 then grow t c;
  t.nfree <- t.nfree - 1;
  t.all.(t.free.(t.nfree))

let release t id =
  t.free.(t.nfree) <- id;
  t.nfree <- t.nfree + 1;
  t.all.(id)
