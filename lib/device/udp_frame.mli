(** Raw Ethernet/IPv4/UDP frame validation and reply minting for the
    NIC rx pipeline ({!Prog.Respond}).

    The device owns no network stack, so the respond path works on raw
    bytes in exactly the layout [lib/net] emits: 14 B Ethernet header,
    20 B IPv4 header (no options), 8 B UDP header, payload at offset
    {!header_bytes}. Both the IPv4 header checksum and the UDP
    pseudo-header checksum of a request are verified before any reply
    is built — a corrupted frame must fall through to the host rather
    than be answered for the wrong key. *)

val header_bytes : int
(** 42: the UDP payload offset within a frame. *)

val reply : self_mac:int -> request:string -> payload:string -> (int * string) option
(** Mint the reply frame: src/dst swapped at every layer, [payload]
    carried, lengths and both checksums recomputed so the requester's
    stack accepts it. [(dst_mac, frame)], or [None] when the request is
    not a well-formed UDP datagram addressed to [self_mac] with both
    checksums valid, or the reply would overflow a 16-bit length. *)
