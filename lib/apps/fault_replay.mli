(** The storage phase [demi faults] replays a fault plan against,
    shared with the fault suite so that a CLI replay and a test of the
    same plan and seed run the same operations. (The echo phase is
    {!Echo.rtt}.) It stops at its first error and returns how many
    records completed before it, and that error. *)

val log :
  demi:Demikernel.Demi.t -> records:int -> int * Demikernel.Types.error option
(** Create [replay.log] on [demi]'s block device and append [records]
    sealed records to it, popping each write's completion. *)
