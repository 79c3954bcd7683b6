(** Redis-like server and closed-loop client on the Demikernel API.

    The server runs on {!Dk_sched.Event_loop}: one outstanding pop per
    connection, answered with zero-copy responses
    ({!Kv.apply_zero_copy}); each request charges
    [Cost.app_request] of application work (the paper's ~2 µs Redis
    figure). The client drives the simulation with blocking waits and
    records per-operation latency. *)

type server

val start_tcp_server :
  demi:Demikernel.Demi.t -> port:int -> kv:Kv.t -> (server, Demikernel.Types.error) result

val start_udp_offload_server :
  demi:Demikernel.Demi.t ->
  port:int ->
  kv:Kv.t ->
  ?policy:Dk_device.Table.policy ->
  ?obs_prefix:string ->
  ?capacity:int ->
  ?max_value:int ->
  ?populate:bool ->
  unit ->
  (server, Demikernel.Types.error) result
(** UDP server speaking the single-datagram codec
    ({!Proto.udp_request_string}) with the GET hot path offloaded to
    the NIC via {!Demikernel.Demi.offload_udp_get}: on a programmable
    NIC, GET hits are answered from the device-resident table at zero
    host CPU and only misses/SETs/DELs reach this loop. SETs and DELs
    update/invalidate the device entry over the synchronous control
    queue {e before} the response is pushed, so acknowledged writes are
    never followed by stale device reads. [populate] additionally
    inserts host-served GET hits into the device table (default:
    host-managed population only). Without a programmable NIC the same
    pipeline runs on the host, charged per datagram by its static
    footprint ({!Demikernel.Demi.pipeline_cpu_ns}) — responses are
    byte-identical either way. *)

val server_offloaded : server -> bool
(** Whether the GET pipeline actually landed on the device. *)

val set_udp_peer :
  server -> Dk_net.Addr.endpoint -> (unit, Demikernel.Types.error) result
val requests_served : server -> int

type client_stats = {
  ops : int;
  hits : int;
  misses : int;
  latency : Dk_sim.Histogram.t; (** per-op round trip, ns *)
  elapsed_ns : int64;
}

val run_tcp_client :
  demi:Demikernel.Demi.t ->
  dst:Dk_net.Addr.endpoint ->
  ops:int ->
  keys:int ->
  value_size:int ->
  read_fraction:float ->
  unit ->
  (client_stats, Demikernel.Types.error) result
(** Pre-populates every key with one SET pass, then runs [ops]
    operations closed-loop over Zipf(0.99)-distributed keys (seed 11). *)
