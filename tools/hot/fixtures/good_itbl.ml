(* An int-keyed table through [Dk_util.Itbl]: the key hashes with one
   multiply and compares with machine (=), so keyed lookups on the
   per-op path are neither polymorphic nor scans. *)

let complete t tok = Dk_util.Itbl.find_opt t tok
[@@hot]

let forget t tok = Dk_util.Itbl.remove t tok
[@@hot]
