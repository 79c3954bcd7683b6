(* Bounded device-resident key/value table backing [Prog.Respond].

   The table models NIC SRAM: hard capacity and value-size caps fixed
   at creation. Only the host admits entries; past capacity an insert
   evicts the least-recently used one (deterministic: logical ticks,
   ties to the smallest key). Everything here runs on the device —
   host code reaches it only through the NIC control queue
   ([Nic.ctrl_*]); the dk-lint `offload-site` rule rejects other
   callers. *)

module Metrics = Dk_obs.Metrics

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  updates : int;
  evictions : int;
  invalidations : int;
  rejected : int;
}

type entry = { mutable value : string; mutable used : int }

type t = {
  capacity : int;
  max_value : int;
  entries : (string, entry) Hashtbl.t;
  mutable tick : int;
  (* Obs instruments are created here, per instance, never at module
     toplevel: a run that never enables offload must snapshot exactly
     as before (the committed BENCH baselines embed the snapshot).
     The counts a [stats] record reports are this table's instances of
     the class counters. *)
  hits : Metrics.counter;
  misses : Metrics.counter;
  insertions : Metrics.counter;
  evictions : Metrics.counter;
  invalidations : Metrics.counter;
  m_bytes : Metrics.counter;
  mutable lookups : int;
  mutable updates : int;
  mutable rejected : int;
}

let create ?(obs_prefix = "") ~capacity ~max_value () =
  if capacity <= 0 then invalid_arg "Table.create: capacity must be positive";
  if max_value <= 0 then invalid_arg "Table.create: max_value must be positive";
  let m name = Metrics.counter (obs_prefix ^ "device.nic.offload." ^ name) in
  let own name = Metrics.instance (m name) in
  {
    capacity;
    max_value;
    entries = Hashtbl.create (min capacity 1024);
    tick = 0;
    hits = own "hits";
    misses = own "misses";
    insertions = own "insertions";
    evictions = own "evictions";
    invalidations = own "invalidations";
    m_bytes = m "bytes";
    lookups = 0;
    updates = 0;
    rejected = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.entries
let mem t k = Hashtbl.mem t.entries k

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let lookup t k =
  t.lookups <- t.lookups + 1;
  match Hashtbl.find_opt t.entries k with
  | Some e ->
      e.used <- next_tick t;
      Metrics.incr t.hits;
      Metrics.add t.m_bytes (String.length e.value);
      Some e.value
  | None ->
      Metrics.incr t.misses;
      None

(* Deterministic LRU victim: the minimum (used, key) pair. The
   key-sorted walk (Dk_util.Det) makes the scan independent of
   hashtable iteration order, so replay sees the same victim;
   O(capacity log capacity) models a small SRAM table honestly
   enough. *)
let evict_lru t =
  let victim =
    Dk_util.Det.fold_sorted ~compare:String.compare
      (fun k (e : entry) acc ->
        match acc with
        | Some (_, bu) when bu <= e.used -> acc
        | _ -> Some (k, e.used))
      t.entries None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.entries k;
      Metrics.incr t.evictions
  | None -> ()

let reject t =
  t.rejected <- t.rejected + 1;
  Error `Rejected

let insert t k v =
  if String.length v > t.max_value then reject t
  else
    match Hashtbl.find_opt t.entries k with
    | Some e ->
        e.value <- v;
        e.used <- next_tick t;
        t.updates <- t.updates + 1;
        Ok ()
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_lru t;
        Hashtbl.replace t.entries k { value = v; used = next_tick t };
        Metrics.incr t.insertions;
        Ok ()

let update t k v =
  if String.length v > t.max_value then begin
    (* Too large to stay resident: drop the entry rather than serve the
       stale previous value. *)
    if Hashtbl.mem t.entries k then begin
      Hashtbl.remove t.entries k;
      Metrics.incr t.invalidations
    end;
    ignore (reject t);
    false
  end
  else
    match Hashtbl.find_opt t.entries k with
    | Some e ->
        e.value <- v;
        e.used <- next_tick t;
        t.updates <- t.updates + 1;
        true
    | None -> false

let invalidate t k =
  match Hashtbl.find_opt t.entries k with
  | Some _ ->
      Hashtbl.remove t.entries k;
      Metrics.incr t.invalidations;
      true
  | None -> false

let clear t =
  let n = Hashtbl.length t.entries in
  Hashtbl.reset t.entries;
  Metrics.add t.invalidations n

let stats t =
  {
    lookups = t.lookups;
    hits = Metrics.value t.hits;
    misses = Metrics.value t.misses;
    insertions = Metrics.value t.insertions;
    updates = t.updates;
    evictions = Metrics.value t.evictions;
    invalidations = Metrics.value t.invalidations;
    rejected = t.rejected;
  }
