(* Tooling-classified state: a sanitizer/test capture channel that is
   empty outside instrumented runs and never consulted on the packet
   path. [@@shard.tooling "why"] exempts it from the shard-state rule
   the same way [@@shard.per_shard] does, while the inventory still
   records it under its own class so `dk_shard --inventory` counts it. *)

let trace_sink : (string -> unit) option ref = ref None
[@@shard.tooling "test-harness trace tap; None outside tests"]

let captured : string list ref = ref []
[@@shard.tooling "per-run capture buffer drained by the test harness"]

let emit line =
  (match !trace_sink with Some f -> f line | None -> ());
  captured := line :: !captured
