(** The workload [demi faults] replays a fault plan against, shared
    with the fault suite so that a CLI replay and a test of the same
    plan and seed run the same operations. Each phase stops at its
    first error and returns how many steps completed before it, and
    that error. *)

val echo :
  demi:Demikernel.Demi.t ->
  dst:Dk_net.Addr.endpoint ->
  size:int ->
  rounds:int ->
  int * Demikernel.Types.error option
(** Echo round trips over one TCP connection ({!Echo.demi_rtt}). *)

val log :
  demi:Demikernel.Demi.t -> records:int -> int * Demikernel.Types.error option
(** Create [replay.log] on [demi]'s block device and append [records]
    sealed records to it, popping each write's completion. *)
