(** Redis-like server and closed-loop client on any world but mTCP's.

    On Demikernel queues (the bypass libOS or the kernel fallback) the
    server runs on {!Dk_sched.Event_loop}: one outstanding pop per
    connection, answered with zero-copy responses
    ({!Kv.apply_zero_copy}). On POSIX sockets (the legacy kernel, the
    baseline the paper argues against) every accept/read/write is a
    syscall, every byte crosses the user/kernel boundary by copy, and
    requests arrive on a byte stream that each connection's framing
    decoder cuts (§3.2); the event loop blocks in epoll. Either way
    each request charges [Cost.app_request] of application work (the
    paper's ~2 µs Redis figure). The client drives the simulation with
    blocking waits and records per-operation latency. *)

type server

val serve : 'os Sim_setup.world -> (server, Demikernel.Types.error) result
(** Start a kv server on port 6379 of the world's server host: on
    Demikernel queues with a store over the server's memory manager,
    or on the kernel's POSIX sockets with a store over a fresh manager.
    @raise Invalid_argument on an mTCP world. *)

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
(** Requests answered so far, on either kind of server. *)

type client_stats = {
  ops : int;
  hits : int;
  misses : int;
  latency : Dk_sim.Histogram.t; (** per-op round trip, ns *)
  elapsed_ns : int64;
}

val run :
  'os Sim_setup.world ->
  ops:int ->
  keys:int ->
  value_size:int ->
  read_fraction:float ->
  unit ->
  (client_stats, Demikernel.Types.error) result
(** From the world's client host, over one TCP connection to the
    server of {!serve}: pre-populate every key with one SET pass, then
    run [ops] operations closed-loop over Zipf(0.99)-distributed keys
    (seed 11). Stops at the first failed exchange and returns its
    error; a connection the kernel never completes is [`Refused].
    @raise Invalid_argument on an mTCP world. *)
