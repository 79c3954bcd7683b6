(** User-level network stack over a kernel-bypass NIC.

    One stack per NIC/host: ethernet framing, ARP resolution, IPv4,
    UDP sockets and TCP connections, driven entirely from user space by
    the simulation event loop (the NIC's rx-notify hook schedules a
    processing step; each processed segment charges
    [Cost.user_net_per_pkt] of CPU — no syscalls anywhere). *)

type t

type stats = {
  frames_in : int;
  frames_out : int;
  decode_errors : int;
  not_for_us : int;
  no_listener : int; (** TCP/UDP arrivals with no matching socket *)
}

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  nic:Dk_device.Nic.t ->
  ip:Addr.ip ->
  ?tcp_config:Tcp.config ->
  ?pkt_cost:int64 ->
  unit ->
  t
(** [pkt_cost] is the CPU charged per segment processed or built;
    defaults to [cost.user_net_per_pkt]. The simulated kernel reuses
    this stack with [cost.kernel_net_per_pkt] to model the in-kernel
    network stack of Figure 1's traditional architecture. *)

val engine : t -> Dk_sim.Engine.t
val ip : t -> Addr.ip
val mac : t -> Addr.mac
val nic : t -> Dk_device.Nic.t

(** {2 UDP} *)

val udp_bind :
  t ->
  port:int ->
  recv:(src:Addr.endpoint -> string -> unit) ->
  (unit, [ `In_use ]) result

val udp_unbind : t -> port:int -> unit

val udp_send :
  t ->
  src_port:int ->
  dst:Addr.endpoint ->
  string ->
  (unit, [ `Too_big ]) result
(** Resolves the destination MAC via ARP if needed (queuing the
    datagram meanwhile), then transmits. A payload over 65,507 bytes
    (what a 16-bit IPv4 total length leaves) is refused with
    [`Too_big] and nothing goes on the wire. *)

(** {2 TCP} *)

val tcp_listen :
  t ->
  port:int ->
  on_accept:(Tcp.conn -> unit) ->
  (unit, [ `In_use ]) result
(** [on_accept] runs when a passive connection reaches ESTABLISHED. *)

val tcp_unlisten : t -> port:int -> unit

val tcp_connect : t -> dst:Addr.endpoint -> Tcp.conn
(** Starts the handshake and returns the connection in [Syn_sent];
    observe progress with {!Tcp.set_on_connect} / {!Tcp.set_on_close}.
    A RST from a closed port surfaces as [on_close `Reset]. *)

val connections : t -> int
val stats : t -> stats
