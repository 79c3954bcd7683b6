(** Tx doorbell coalescing: the only consumer of
    [Dk_sim.Cost.pcie_doorbell].

    Kernel-bypass devices charge the CPU one MMIO write per submission;
    batched stacks amortise it by writing many descriptors and ringing
    once. Each device tx path owns one of these stages and routes every
    submission through {!submit}/{!group}; the dk-lint rule
    [doorbell-site] forbids consuming the doorbell cost anywhere else.

    Invariant: with a zero window, {!submit} rings and runs the device
    work inline — bit-identical virtual-time behaviour to the
    historical ring-per-op path. *)

type t

val create :
  engine:Dk_sim.Engine.t -> cost:Dk_sim.Cost.t -> name:string -> unit -> t
(** [name] is the {!Dk_obs.Metrics} class counter bumped once per ring
    (e.g. ["nic.tx.doorbells"]); the doorbell counts its own {!rings}
    in an instance of it. The window starts at [cost.tx_batch_window]. *)

val submit : t -> (unit -> unit) -> unit
(** Submit one descriptor. Window 0: ring, then run the thunk, now.
    Window > 0: stage the thunk; one flush event [window] ns out rings
    once and runs everything staged, in order. *)

val group : t -> (unit -> 'a) -> 'a
(** Run [f]; submissions it makes share a single doorbell ring even at
    window 0 (flushed synchronously before [group] returns). The
    device's [submit_many] entry points are built on this. *)

val set_window : t -> int64 -> unit
(** Change the coalescing window (clamped at 0). Affects subsequent
    submissions; an already-scheduled flush still fires. *)

val window : t -> int64
val rings : t -> int
(** Doorbell rings so far on this instance (the class-wide counter
    aggregates across devices; benches diff this per-device value). *)
