(* Polymorphic hash and compare walk the key structure on every call.
   The tuple key also allocates, so the first root trips both
   families; the structural (=) on a constructed value trips only
   hot-poly. *)

let flows : (int * int, int) Hashtbl.t = Hashtbl.create 16

let classify src dst =                                (* FLAG hot-alloc hot-poly *)
  Hashtbl.find_opt flows (src, dst)
  [@@hot]

let st_weight st =                                    (* FLAG hot-poly *)
  if st = Some 1 then 2 else 1
  [@@hot]

(* Bare [min]/[max] are polymorphic, so even on ints each call is a C
   call ([caml_lessequal]); [Int.min] is the monomorphic spelling and
   passes. *)
let clamp_len len room =                              (* FLAG hot-poly *)
  min len room
  [@@hot]

let clamp_len_int len room = Int.min len room [@@hot]
