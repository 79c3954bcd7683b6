(** One shared-nothing shard of the multi-shard datapath.

    A shard is a virtual core: its own {!Dk_apps.Sim_setup.world} —
    engine (clock), fabric, client and server hosts, Demikernel
    instances (and with them qd tables, token waitsets, ready FIFOs,
    memory manager, TCP state and doorbell windows) and an isolated
    fault domain — plus a KV store, a workload RNG, and
    [shard<i>.*]-namespaced observability instruments. Cross-shard communication happens only through
    {!Xmailbox}. *)

type t

val create :
  id:int ->
  ?cost:Dk_sim.Cost.t ->
  ?fault_plan:Dk_fault.Fault.plan ->
  ?programmable:bool ->
  seed:int64 ->
  unit ->
  t
(** Build the shard: [Sim_setup.world ~id] under Demikernel, so its
    hosts are [10.<id>.0.1] and [10.<id>.0.2] and [fault_plan], when
    given, is installed into the shard's own fault domain — faults
    never leak across shards. [programmable] (default [false]) gives
    the NICs a program slot so the server can offload its kv GET hot
    path ({!Demikernel.Demi.offload_udp_get}); its device table's
    instruments live under the shard's own [shard<i>.] namespace. The shard's RNG stream is derived from
    [seed] and [id], so it is independent of other shards' draw
    counts. *)

val id : t -> int
val engine : t -> Dk_sim.Engine.t
val client_host : t -> Dk_apps.Sim_setup.host
val cost : t -> Dk_sim.Cost.t
val demi_client : t -> Demikernel.Demi.t
val demi_server : t -> Demikernel.Demi.t
val kv : t -> Dk_apps.Kv.t
val rng : t -> Dk_sim.Rng.t
val server_endpoint : t -> int -> Dk_net.Addr.endpoint

(** Per-shard instruments (in the default registry, names
    [shard<i>.<layer>.<component>.<event>]): *)

val rtt_hist : t -> Dk_obs.Metrics.hist
val ops_counter : t -> Dk_obs.Metrics.counter
val remote_counter : t -> Dk_obs.Metrics.counter
val flows_counter : t -> Dk_obs.Metrics.counter

val obs_name : int -> string -> string
(** [obs_name i rest] is ["shard<i>.<rest>"] — the naming scheme every
    per-shard instrument follows. *)
