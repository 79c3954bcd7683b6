(* The stdlib's Hashtbl is polymorphic: every keyed operation runs the
   generic [caml_hash] and [caml_compare], even on an int key. A token
   table on the per-op path pays that on every lookup; [Dk_util.Itbl]
   (good_itbl.ml) is the monomorphic spelling. *)

let tokens : (int, string) Hashtbl.t = Hashtbl.create 16

let complete tok = Hashtbl.find_opt tokens tok (* FLAG hot-poly *)
[@@hot]

let forget tok = Hashtbl.remove tokens tok (* FLAG hot-poly *)
[@@hot]

(* The monomorphic table is still a hash table: walking it on the
   per-op path is a scan, in hash order or sorted. *)
let drain t = Dk_util.Itbl.iter (fun _ _ -> ()) t (* FLAG hot-complexity *)
[@@hot]

let audit t = Dk_util.Itbl.fold_sorted (fun k _ n -> k + n) t 0 (* FLAG hot-complexity *)
[@@hot]
