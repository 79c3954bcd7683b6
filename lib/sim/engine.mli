(** Deterministic discrete-event simulation engine with a virtual
    nanosecond clock.

    Everything in the reproduction that would be hardware or wall-clock
    time in the paper's testbed — CPU work, PCIe doorbells, DMA, wire
    propagation, NVMe access — is charged to this clock. Events are
    ordered by (timestamp, insertion order), so runs are fully
    deterministic.

    Times and durations saturate at [max_int] ns (2{^62} - 1, about 146
    years): a time beyond it reads as the horizon, never as a wrapped
    past time. *)

type t

type timer
(** Handle for a cancellable scheduled event. One made by {!timer} can
    be re-armed any number of times (e.g. a TCP retransmission
    timer). *)

val create : unit -> t

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val now_ns : t -> int
(** {!now} as the immediate int the engine keeps: no box. The device
    path reads its clock here. *)

val consume : t -> int64 -> unit
(** [consume t ns] models the CPU being busy for [ns]: advances the clock
    without running events scheduled in the skipped interval early —
    they run at their timestamps the next time the loop steps, which
    matches a single-core poll loop that cannot observe interrupts while
    computing. Negative durations are ignored. *)

val consumed : t -> int64
(** Cumulative ns ever charged through {!consume} — the engine's total
    CPU busy time, as opposed to {!now} which also advances while the
    core idles between events. [consumed b - consumed a] across a
    workload is its host-CPU cost; device-side work (DMA, on-NIC
    programs) never moves it. *)

val at : t -> int64 -> (unit -> unit) -> timer
(** Schedule a thunk at an absolute time (clamped to [now]). *)

val after : t -> int64 -> (unit -> unit) -> timer
(** Schedule a thunk [ns] after [now]. *)

val timer : t -> (unit -> unit) -> timer
(** An unscheduled handle that runs the thunk each time it fires;
    {!rearm} queues it. *)

val rearm : timer -> int64 -> unit
(** [rearm tm ns] cancels [tm] if it is queued and schedules it [ns]
    after [now] — under a fresh insertion order, exactly as {!cancel}
    followed by {!after} would. A thunk may re-arm its own handle. *)

val rearm_at : timer -> int -> unit
(** [rearm_at tm time] cancels [tm] if it is queued and schedules it at
    the absolute [time] ns (clamped to [now]) under a fresh insertion
    order: the one {!at} would draw at the same call. The device's
    descriptors are handles re-armed this way, one per hop. *)

val scheduled : timer -> bool
(** Whether the handle is queued: armed, and neither fired nor
    cancelled since. *)

val cancel : timer -> unit
(** Takes the event out of the queue at once. Cancelling a fired or
    already-cancelled timer is a no-op. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val next_at : t -> int64 option
(** Timestamp of the earliest live (uncancelled) event, without running
    it. [None] when nothing is scheduled. Lets poll loops with a
    deadline decide whether an event due at-or-before the deadline is
    still outstanding (see [Demi.wait_timeout]: completions landing
    exactly on the deadline must win the tie). *)

val step : t -> bool
(** Run the earliest event, advancing the clock to its timestamp.
    Returns [false] if no events are pending. *)

val run : t -> unit
(** Step until no events remain. *)

val run_until : t -> (unit -> bool) -> bool
(** Step until the predicate holds (checked before each step) or events
    run out; returns whether the predicate held. *)

val run_for : t -> int64 -> unit
(** Process all events with timestamps within [ns] of the current time,
    leaving the clock at the end of the window. *)

(** {2 Multi-clock scheduling}

    A group of engines models per-core shards, each owning an
    independent virtual clock (the multi-shard datapath in
    [Dk_shard_rt]). The group scheduler always advances the engine
    holding the globally earliest pending event, breaking timestamp
    ties toward the lowest array index — a total, deterministic order,
    so a fixed (seed, N) replays byte-identically. With a single
    engine, [step_group [| e |]] is exactly [step e], which is what
    makes an N=1 shard run bit-identical to a plain single-engine
    run. *)

val step_group : t array -> bool
(** Run the single earliest event in the group. Returns [false] when no
    engine has pending events. *)

val run_group : t array -> unit
(** Step the group until every engine is drained. *)
