(** The frame layout the host stack and the NIC share (one buffer: a
    14 B Ethernet header, a 20 B IPv4 header, an 8 B UDP or a 20 B TCP
    header, no options, then the payload), and the reply a programmable
    NIC mints for a UDP request. *)

(** Where the IPv4 header (14), the UDP or TCP header (34), a
    datagram's payload (42) and a segment's payload (54) start. *)
val ip_off : int
val l4_off : int
val udp_payload_off : int
val tcp_payload_off : int

val udp_max_payload : int
(** 65,507: the largest payload whose IPv4 total length fits 16 bits. *)

(** The bytes a NIC program's port guard reads: the ethertype (12), the
    IPv4 protocol (23) and the UDP destination port (36). *)
val ethertype_off : int
val ip_proto_off : int
val udp_dst_port_off : int

val udp_reply :
  self_mac:int -> request:string -> payload:string -> (int * string) option
(** The reply carrying [payload] and the MAC it goes to, or [None] when
    [payload] exceeds {!udp_max_payload} or [request] is not an IPv4/UDP
    datagram for [self_mac] that passes {!Ipv4.check} and {!Udp.check}
    (a corrupted request falls through to the host instead of being
    answered for the wrong key). The reply swaps addresses and ports,
    reuses the request's IPv4 ident, has TTL 64 and is written with
    {!Eth.write}, {!Ipv4.write} and {!Udp.write}. *)
