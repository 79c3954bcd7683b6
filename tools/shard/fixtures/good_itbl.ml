(* An [Itbl] in a constructor-built record, walked through its sorted
   fold: deterministic for the same inputs, as [Det] is for a Hashtbl.
   Nothing here may be flagged. *)

type t = { flows : int Dk_util.Itbl.t }

let create () = { flows = Dk_util.Itbl.create 16 }

let service t flow bytes = Dk_util.Itbl.replace t.flows flow bytes
[@@shard.entry]

let snapshot t =
  Dk_util.Itbl.fold_sorted
    (fun flow bytes acc -> (flow, bytes) :: acc)
    t.flows []
[@@shard.entry]
