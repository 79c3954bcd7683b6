(** Echo servers and round-trip measurement on three I/O interfaces:

    - Demikernel queues (kernel-bypass data path, Figure 1 right),
    - POSIX sockets through the simulated kernel (Figure 1 left),
    - mTCP-style batched user-level TCP with the POSIX API (§6).

    Used by experiments E1 and E7 to regenerate the paper's
    architecture comparison. *)

val start_demi_server :
  demi:Demikernel.Demi.t -> port:int -> (unit, Demikernel.Types.error) result

val demi_rtt :
  demi:Demikernel.Demi.t ->
  dst:Dk_net.Addr.endpoint ->
  size:int ->
  rounds:int ->
  Dk_sim.Histogram.t * Demikernel.Types.error option
(** Up to [rounds] round trips of [size] bytes over one TCP connection
    to an echo server at [dst], stopping at the first error: the
    latency of each completed round, and that error if one ended the
    run early. *)

val start_posix_server :
  posix:Dk_kernel.Posix.t -> port:int -> (unit, Dk_kernel.Posix.error) result

val posix_rtt :
  posix:Dk_kernel.Posix.t ->
  engine:Dk_sim.Engine.t ->
  dst:Dk_net.Addr.endpoint ->
  size:int ->
  rounds:int ->
  (Dk_sim.Histogram.t, Dk_kernel.Posix.error) result

val start_mtcp_server :
  mtcp:Dk_kernel.Mtcp.t -> port:int -> (unit, [ `In_use ]) result

val mtcp_rtt :
  mtcp:Dk_kernel.Mtcp.t ->
  engine:Dk_sim.Engine.t ->
  dst:Dk_net.Addr.endpoint ->
  size:int ->
  rounds:int ->
  Dk_sim.Histogram.t
