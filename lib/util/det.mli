(** Deterministic (key-sorted) iteration over [Hashtbl.t].

    [Hashtbl] iteration order is a function of the hash seed and
    insertion history, so effects produced under [Hashtbl.iter] /
    [Hashtbl.fold] are not reproducible across runs. Code in [lib/]
    whose iteration order is observable — packet delivery schedules,
    readiness batches, audit reports — must iterate through this module
    instead. dk-shard's [det-source] rule flags direct hash-order
    iteration reachable from the datapath and exempts [Det]. *)

val iter_sorted :
  compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted ~compare f tbl] applies [f] to every binding in
    ascending key order. With duplicate keys (from [Hashtbl.add]
    shadowing), relative order of equal keys is unspecified but stable
    for a given table state. *)

val fold_sorted :
  compare:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** Fold in ascending key order. *)
