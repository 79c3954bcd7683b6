(* [Dk_util.Itbl] is Hashtbl over int keys, and the analysis treats it
   the same way: a module-level table is shared state, a write to one
   classified immutable breaks the classification, and a walk in hash
   order makes replay diverge. *)

let sessions : string Dk_util.Itbl.t = Dk_util.Itbl.create 16 (* FLAG shard-state *)

let ports : string Dk_util.Itbl.t = Dk_util.Itbl.create 8
[@@shard.immutable "well-known ports, filled at module init only"]

let claim port owner =
  Dk_util.Itbl.replace ports port owner (* FLAG shard-state *)

let emit_all out = Dk_util.Itbl.iter out sessions (* FLAG det-source *)
[@@shard.entry]
