(** The multi-shard datapath: N shared-nothing shards, RSS flow
    steering, a full {!Xmailbox} mesh, and the closed-loop echo and KV
    workloads the evaluation (experiment E14) drives through it.

    Determinism: every shard's engine advances independently and the
    group scheduler always fires the globally earliest event (ties to
    the lowest shard id), so a fixed (seed, N, xfrac) replays
    byte-identically; with N=1 the group loop {e is} the plain
    single-engine loop.

    Cross-shard traffic: each request draws a home shard (local, or
    with probability [xfrac] uniform over the others). A request
    landing on a non-owner is forwarded over the mailbox, applied by
    the owner against its own state, and answered after the owner's
    ack — values cross the boundary as copies, never as another
    shard's buffers. *)

type msg =
  | Probe of string
  | Probe_ack of string
  | Kv_req of Dk_apps.Proto.request
  | Kv_resp of Dk_apps.Proto.response

type t

val create :
  n:int ->
  ?xfrac:float ->
  ?seed:int64 ->
  ?fault:string * int64 ->
  ?cost:Dk_sim.Cost.t ->
  unit ->
  t
(** Build N shards plus the mailbox mesh and RSS table. [fault] names
    a {!Dk_fault.Fault.plan_names} plan and a base seed; each shard
    installs the plan into its private fault domain with the seed
    offset by its id (correlated failure mode, independent draws).
    Raises [Invalid_argument] on [n <= 0], [xfrac] outside [0,1], or
    an unknown plan name. A runtime drives one workload run; build a
    fresh one per run. *)

(** {2 Results} *)

type shard_stats = {
  shard : int;
  flow_count : int;  (** flows RSS steered to this shard *)
  op_count : int;  (** client ops completed on this shard *)
  remote_count : int;  (** ops whose home was another shard *)
  elapsed_ns : int64;  (** this shard's clock: run end - traffic start *)
  latency : Dk_sim.Histogram.t;  (** per-shard client RTT *)
}

type stats = {
  per_shard : shard_stats array;
  total_ops : int;
  total_remote : int;
  wall_ns : int64;  (** max over shards of [elapsed_ns] *)
}

(** {2 Workloads}

    [?drive] overrides how the engine group is driven (default
    {!Dk_sim.Engine.run_group}) — the N=1 identity test drives the
    single engine with the plain [Engine.run] loop instead. *)

val run_echo :
  ?drive:(Dk_sim.Engine.t array -> unit) ->
  t ->
  flows:int ->
  size:int ->
  rounds:int ->
  stats
(** [flows] client connections placed by RSS, each doing [rounds]
    closed-loop echoes of [size]-byte payloads whose first byte names
    the drawn home shard. *)

val run_kv :
  ?drive:(Dk_sim.Engine.t array -> unit) ->
  t ->
  flows:int ->
  ops_per_flow:int ->
  keys_per_shard:int ->
  value_size:int ->
  read_fraction:float ->
  stats
(** Striped key space (key [k] lives on shard [k mod n]), preloaded
    directly into each shard's store before traffic starts. *)

(** {2 RSS placement}

    Client connection [c] is the synthetic admission-time flow
    10.200.0.0+[c]:(40000 + [c] mod 2{^14}) → 10.255.0.100:[dst_port]
    over TCP. *)

val rebalance : Dk_device.Rss.t -> flows:int -> dst_port:int -> unit
(** Weigh the indirection table's buckets by connections [0, flows)
    and repoint it so per-queue load equalises ({!Dk_device.Rss.rebalance},
    the [ethtool -X] move). *)

val flow_owner : Dk_device.Rss.t -> int -> dst_port:int -> int
(** The rx queue (shard) RSS steers connection [c] to. *)

(** {2 Accessors} *)

val engines : t -> Dk_sim.Engine.t array

val key_home : t -> string -> int
(** Owner shard of a [Dk_apps.Workload.key_name]-format key. *)

val pending_count : t -> int
(** Cross-shard requests forwarded but not yet answered; 0 after a
    fully drained run (no lost replies). *)
