(* Deterministic iteration over hash tables.

   Hashtbl iteration order depends on the hash seed and insertion
   history, so any observable output produced by [Hashtbl.iter] /
   [Hashtbl.fold] varies run to run. Everything in lib/ that walks a
   table and produces ordered effects (delivery schedules, readiness
   batches, reports) must go through these helpers instead; dk-shard's
   det-source rule flags direct hash-order iteration reachable from the
   datapath, and exempts this module. *)

let bindings_sorted ~compare tbl =
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (ka, _) (kb, _) -> compare ka kb) all

let iter_sorted ~compare f tbl =
  List.iter (fun (k, v) -> f k v) (bindings_sorted ~compare tbl)

let fold_sorted ~compare f tbl init =
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    init (bindings_sorted ~compare tbl)
