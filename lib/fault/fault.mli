(** dk_fault: deterministic fault injection at the device boundary.

    The paper argues a kernel-bypass libOS must absorb the OS's duties,
    including surviving the failures real devices exhibit: lost,
    duplicated, reordered and corrupted frames; stalled or errored NVMe
    completions; torn writes; RDMA queue-pair breaks. Real DPDK/SPDK
    rigs cannot produce those failures on demand; the simulated
    {!Dk_device} substrate can, {e deterministically}.

    A {e plan} names a set of injection {e sites} and, per site, a
    probability, a virtual-time window and an optional budget. Devices
    consult the plan through the hooks below ({!fire}, {!mangle},
    {!extra_delay}); dk-lint's [fault-site] rule keeps ad-hoc
    randomness out of [lib/device/], so these hooks are the only
    source of injected misbehaviour.

    {b Determinism contract.}
    - Every decision is drawn from a per-site {!Dk_sim.Rng} stream
      seeded from [plan seed ⊕ site], so two runs with the same plan,
      seed and workload inject identical faults, and adding a spec for
      one site never perturbs another site's stream.
    - With no plan installed — or a spec whose [rate] is [0.] — no
      hook draws from any RNG and no virtual time is charged:
      zero-fault runs are bit-identical to runs without this module.
    - Hooks never read wall-clock time; windows are virtual ns. *)

type site =
  | Nic_rx_drop      (** receive ring: frame vanishes before enqueue *)
  | Nic_tx_drop      (** transmit path: frame DMAs but never reaches the wire *)
  | Nic_rx_dup       (** receive ring: frame enqueued twice *)
  | Nic_rx_corrupt   (** receive ring: one bit flipped (checksums catch it) *)
  | Fabric_drop      (** in-flight frame lost *)
  | Fabric_dup       (** in-flight frame delivered twice *)
  | Fabric_reorder   (** frame delayed past its successors (FIFO clamp waived) *)
  | Fabric_corrupt   (** one bit flipped on the wire *)
  | Fabric_partition (** link down: every frame in the window is lost *)
  | Block_stall      (** NVMe completion delayed by [magnitude_ns] *)
  | Block_error      (** NVMe completion returns [`Io_error] *)
  | Block_torn_write (** write persists a prefix only, still reports [`Ok] *)
  | Rdma_qp_break    (** queue pair severed; the post completes [`Qp_broken] *)

val sites : site list
(** Every site, in declaration order. *)

val site_name : site -> string
(** ["nic.rx_drop"], ["fabric.partition"], ["block.stall"], ... *)

val describe : site -> string
(** One-line description for [demi faults]. *)

type spec = {
  rate : float;            (** injection probability per opportunity;
                               [0.] never fires (and never draws),
                               [>= 1.] always fires (without drawing) *)
  from_ns : int64;         (** window start, virtual ns *)
  until_ns : int64 option; (** window end (exclusive); [None] = forever *)
  max_count : int option;  (** injection budget; [None] = unbounded *)
  magnitude_ns : int64;    (** site-specific scale: stall/reorder delay *)
}

val spec :
  rate:float ->
  ?from_ns:int64 ->
  ?until_ns:int64 ->
  ?max_count:int ->
  ?magnitude_ns:int64 ->
  unit ->
  spec
(** Defaults: window \[[0], ∞), no budget, [magnitude_ns = 100_000]. *)

type plan = { seed : int64; plan_name : string; specs : (site * spec) list }

val plan : seed:int64 -> ?name:string -> (site * spec) list -> plan
(** Later duplicates of a site override earlier ones. *)

(** {2 Named plans}

    The scenario library shared by [test/test_fault.ml] and
    [demi faults --plan <name> --seed <n>]. *)

val plan_names : (string * string) list
(** [(name, description)] for every named plan. *)

val named : seed:int64 -> string -> plan option

(** {2 The injection engine} *)

type t

val create : unit -> t
(** A fresh, unarmed fault domain. Each simulated world owns one
    ({!Dk_apps.Sim_setup.world}) and passes it to its devices, so a
    plan installed here reaches that world's devices and no other. *)

val install : t -> plan -> unit
(** Arm the plan, resetting per-site RNG streams and budgets. Replaces
    any previous plan. *)

(** {3 Hooks (device layer only)} *)

val fire : t -> site -> now:int -> bool
(** One injection opportunity at virtual time [now] (the engine's int
    ns clock, {!Dk_sim.Engine.now_ns}). [true] means the caller must
    misbehave; the engine has already counted the injection
    ([fault.<site>.injected]) and logged it to the flight recorder. *)

val mangle : t -> site -> now:int -> string -> string option
(** Corruption sites: [Some frame'] with one deterministically chosen
    bit flipped when the site fires, [None] otherwise. *)

val extra_delay : t -> site -> now:int -> int
(** Stall/reorder sites: the configured [magnitude_ns] (plus a
    deterministic jitter for reorder) when the site fires, [0]
    otherwise, in int ns. *)

val magnitude : t -> site -> int64
(** The armed spec's [magnitude_ns] ([0L] when the site is not armed).
    Does not draw or count: use after {!fire} when the caller needs the
    scale itself, e.g. the offset of a duplicated delivery. *)

val cut_point : t -> site -> len:int -> int
(** Torn writes: deterministic prefix length in \[[1], [len - 1]\] (or
    [0] for [len <= 1]). Call only after {!fire} returned [true] —
    it draws from the site's stream. *)

(** {3 Accounting} *)

val injected : t -> site -> int
(** Injections so far under the current plan. *)

val total_injected : t -> int

