(** Network I/O queues over the user-level stack (the DPDK-class
    libOS).

    Three queue flavours:
    - {!of_conn}: a TCP connection queue. Pushed sgas are framed
      (§5.2) onto the byte stream; pops yield whole messages with their
      original segment boundaries — the atomic data unit of §4.2.
    - {!listener}: pops yield [Accepted qd] for each new connection.
    - {!udp}: datagram queue; one message per datagram, no framing
      needed.

    No data copies are charged anywhere on these paths: sgas flow to
    the NIC by (simulated) DMA — the zero-copy interface of §4.5. *)

val of_conn :
  tokens:Token.t ->
  conn:Dk_net.Tcp.conn ->
  unit ->
  Qimpl.t

val listener :
  tokens:Token.t ->
  stack:Dk_net.Stack.t ->
  port:int ->
  register:(Qimpl.t -> Types.qd) ->
  unit ->
  (Qimpl.t, [ `In_use ]) result
(** [register] installs a new connection queue in the runtime's
    descriptor table and returns its qd. *)

val udp :
  tokens:Token.t ->
  stack:Dk_net.Stack.t ->
  port:int ->
  peer:Dk_net.Addr.endpoint option ref ->
  unit ->
  (Qimpl.t, [ `In_use ]) result
(** A datagram queue bound to [port]. Pushes go to [!peer] (set by the
    runtime's [connect]); pops yield one sga per datagram. *)
