(** Datapath metrics registry: named counters, gauges and log-linear
    latency histograms.

    Kernel-bypass removes the kernel's observability along with its
    overheads; the libOS must supply its own (§2, §4.4). This registry
    is that replacement. Two invariants govern every instrument here:

    - {b Fast-path cost}: recording an event is one mutable-field bump
      on a pre-resolved record. Name resolution (hashtable lookup)
      happens once, when the instrument is created, never per event.
    - {b Zero virtual time}: no operation in this module touches
      [Dk_sim.Engine] or [Dk_sim.Rng]. Instrumented and uninstrumented
      runs produce bit-identical simulated-time results.

    Instruments are get-or-create by name: asking twice for the same
    name in the same registry returns the same instrument, so
    components of the same class share one aggregate.

    An object that needs its own count takes an {e instance} of the
    class instrument ({!instance}, {!gauge_instance},
    {!hist_instance}): an unregistered instrument whose every bump also
    lands on its class, without allocating. The object reads its own
    instance; snapshots and {!reset} see only the class. One event is
    thus counted once, per object and per class.

    Naming scheme (see DESIGN.md "Observability"):
    [<layer>.<component>.<event>], e.g. [net.tcp.retransmits],
    [device.nic.rx_dropped], [core.pushes]. *)

type counter
type gauge
type hist

type t
(** A registry. Most code uses {!default}; tests create their own. *)

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrument registers
    with. [reset] it between runs that must not see each other. *)

(* ---- counters: monotonically increasing event counts ---- *)

val counter : ?reg:t -> string -> counter
(** Get or create. Defaults to the {!default} registry. *)

val instance : counter -> counter
(** [instance c] is a fresh, unregistered counter at 0 whose bumps also
    bump [c]. Raises [Invalid_argument] if [c] is itself an instance:
    a class is always a registered instrument. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(* ---- gauges: instantaneous levels with a high-water mark ---- *)

val gauge : ?reg:t -> string -> gauge

val gauge_instance : gauge -> gauge
(** [gauge_instance g] is a fresh, unregistered gauge at 0 whose moves
    also move [g] by the same delta: [g]'s level is the sum of its
    instances' levels, its high-water that of the sum; each instance
    keeps its own. Raises [Invalid_argument] like {!instance}. *)

val set : gauge -> int -> unit

val gauge_add : gauge -> int -> unit
(** Move the level by a delta (and an instance's class with it). *)

val gauge_value : gauge -> int

val gauge_hwm : gauge -> int
(** Highest value ever [set]/reached since creation or [reset]. *)

(* ---- histograms: latency distributions (ns) ---- *)

val hist : ?reg:t -> string -> hist

val hist_instance : hist -> hist
(** [hist_instance h] is a fresh, unregistered histogram whose samples
    also land in [h]. Raises [Invalid_argument] like {!instance}. *)

val observe : hist -> int64 -> unit
(** Record one sample. Negative samples clamp to zero (see
    {!Dk_sim.Histogram}). *)

val hist_data : hist -> Dk_sim.Histogram.t

(* ---- registry-wide operations ---- *)

val reset : t -> unit
(** Zero every registered instrument; registrations (and the instrument
    records components hold) survive, so live components keep working.
    Instances are not registered, so they keep their counts. *)

type hist_summary = {
  hs_count : int;
  hs_mean : float;
  hs_p50 : int64;
  hs_p90 : int64;
  hs_p99 : int64;
  hs_p999 : int64;  (** SLO tail: p99.9 (see DESIGN.md "Scenario harness") *)
  hs_max : int64;
}

type snapshot = {
  counters : (string * int) list;          (** sorted by name *)
  gauges : (string * int * int) list;      (** name, value, high-water *)
  hists : (string * hist_summary) list;    (** sorted by name *)
}

val snapshot : t -> snapshot
(** A consistent, name-sorted view; independent of creation order so
    exports are deterministic. *)

val snapshot_with_shard_agg : t -> snapshot
(** {!snapshot} plus one synthesized [shards.agg.<rest>] entry for
    every metric that appears as [shard<i>.<rest>] (the multi-shard
    namespacing): counters sum across shards, gauges sum their levels
    (high-water = worst single shard), histograms merge before
    summarizing. A registry with no [shard<i>.*] instruments
    snapshots unchanged. *)
