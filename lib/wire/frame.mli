(** The frame layout the host stack and the NIC share (one buffer: a
    14 B Ethernet header, a 20 B IPv4 header, an 8 B UDP or a 20 B TCP
    header, no options, then the payload), the offset of every header
    field either of them reads in place, and the reply a programmable
    NIC mints for a UDP request. *)

(** Where the IPv4 header (14), the UDP or TCP header (34), a
    datagram's payload (42) and a segment's payload (54) start. *)
val ip_off : int
val l4_off : int
val udp_payload_off : int
val tcp_payload_off : int

val udp_max_payload : int
(** 65,507: the largest payload whose IPv4 total length fits 16 bits. *)

(** Field offsets from the start of the frame. Ethernet: the
    destination (0) and source (6) MACs, 48 bits each, and the
    ethertype (12). *)
val dst_mac_off : int
val src_mac_off : int
val ethertype_off : int

(** IPv4: the total length (16), the ident (18), the protocol (23) and
    the source (26) and destination (30) addresses, 32 bits each. *)
val ip_len_off : int
val ip_ident_off : int
val ip_proto_off : int
val ip_src_off : int
val ip_dst_off : int

(** UDP and TCP alike: the source (34) and destination (36) ports. *)
val src_port_off : int
val dst_port_off : int

(** UDP: the length (38), header included. *)
val udp_len_off : int

(** TCP: the sequence (38) and acknowledgement (42) numbers, 32 bits
    each, the flags (47) and the window (48). *)
val tcp_seq_off : int
val tcp_ack_off : int
val tcp_flags_off : int
val tcp_window_off : int

val udp_datagram_end : string -> int
(** Where an IPv4/UDP frame's datagram ends — {!l4_off} plus its UDP
    length, if that length fits the frame — past which the host stack
    reads nothing (Ethernet padding, trailing bytes). Any other frame
    ends at its own length. Total on any bytes; allocates nothing. *)

val udp_reply :
  self_mac:int ->
  self_ip:int ->
  request:string ->
  payload:string ->
  (int * string) option
(** The reply carrying [payload] and the MAC it goes to, or [None] when
    [payload] exceeds {!udp_max_payload} or [request] is not an IPv4/UDP
    datagram the host stack at [self_mac] and [self_ip] would take: it
    must pass {!Ipv4.check} and {!Udp.check} and be addressed to both
    (a corrupted or misaddressed request falls through to the host
    instead of being answered). The reply swaps addresses and ports,
    reuses the request's IPv4 ident, has TTL 64 and is written with
    {!Eth.write}, {!Ipv4.write} and {!Udp.write}. *)
