(** Echo servers and round-trip measurement on any world: Demikernel
    queues (kernel-bypass data path, Figure 1 right, or the
    kernel-fallback libOS), POSIX sockets through the simulated kernel
    (Figure 1 left), or mTCP-style batched user-level TCP behind the
    POSIX API (§6).

    Used by experiments E1, E2 and E7 to regenerate the paper's
    architecture comparison. *)

val start_demi_server :
  demi:Demikernel.Demi.t -> port:int -> (unit, Demikernel.Types.error) result
(** Echo every message on every connection accepted at [port]. *)

val serve : 'os Sim_setup.world -> (unit, Demikernel.Types.error) result
(** Start an echo server on port 7 of the world's server host, on the
    world's OS. The POSIX server keeps what its send ring does not take
    and writes it once the socket is writable again. *)

val rtt :
  'os Sim_setup.world ->
  size:int ->
  rounds:int ->
  Dk_sim.Histogram.t * Demikernel.Types.error option
(** Up to [rounds] round trips of [size] bytes from the world's client
    host over one TCP connection to the echo server of {!serve},
    stopping at the first error: the latency of each completed round,
    and that error if one ended the run early. A connection the server
    never accepts is [`Refused]; a reply the simulation runs dry
    before completing is [`Deadlock]. *)
