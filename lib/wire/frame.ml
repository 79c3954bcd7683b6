let ip_off = Eth.header_size
let l4_off = ip_off + Ipv4.header_size
let udp_payload_off = l4_off + Udp.header_size
let tcp_payload_off = l4_off + Tcp_wire.header_size
let udp_max_payload = 0xffff - Ipv4.header_size - Udp.header_size
let dst_mac_off = 0
let src_mac_off = 6
let ethertype_off = 12
let ip_len_off = ip_off + 2
let ip_ident_off = ip_off + 4
let ip_proto_off = ip_off + 9
let ip_src_off = ip_off + 12
let ip_dst_off = ip_off + 16
let src_port_off = l4_off
let dst_port_off = l4_off + 2
let udp_len_off = l4_off + 4
let tcp_seq_off = l4_off + 4
let tcp_ack_off = l4_off + 8
let tcp_flags_off = l4_off + 13
let tcp_window_off = l4_off + 14

let get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffff_ffff
let get_u48 b i = (Bytes.get_uint16_be b i lsl 32) lor get_u32 b (i + 2)

let udp_datagram_end s =
  let n = String.length s in
  if
    n < udp_payload_off
    || String.get_uint16_be s ethertype_off <> Eth.ipv4
    || String.get_uint8 s ip_proto_off <> Ipv4.udp
  then n
  else
    let ulen = String.get_uint16_be s udp_len_off in
    if ulen < Udp.header_size || l4_off + ulen > n then n else l4_off + ulen

(* A UDP datagram for [self_mac] and [self_ip] that passes the host
   stack's checks; the IPv4 check's length floor vouches for every byte
   read after it. *)
let udp_request ~self_mac ~self_ip b =
  Option.is_none (Ipv4.check b ~off:ip_off ~len:(Bytes.length b - ip_off))
  && get_u48 b dst_mac_off = self_mac
  && Bytes.get_uint16_be b ethertype_off = Eth.ipv4
  && get_u32 b ip_dst_off = self_ip
  && Bytes.get_uint8 b ip_proto_off = Ipv4.udp
  && Option.is_none
       (Udp.check ~src_ip:(get_u32 b ip_src_off) ~dst_ip:self_ip b ~off:l4_off
          ~len:(Bytes.get_uint16_be b ip_len_off - Ipv4.header_size))

let udp_reply ~self_mac ~self_ip ~request ~payload =
  let req = Bytes.unsafe_of_string request in
  let n = String.length payload in
  if n > udp_max_payload || not (udp_request ~self_mac ~self_ip req) then None
  else begin
    let peer_mac = get_u48 req src_mac_off and peer_ip = get_u32 req ip_src_off in
    let b = Bytes.create (udp_payload_off + n) in
    Bytes.blit_string payload 0 b udp_payload_off n;
    Udp.write b ~off:l4_off ~src_ip:self_ip ~dst_ip:peer_ip
      ~src_port:(Bytes.get_uint16_be req dst_port_off)
      ~dst_port:(Bytes.get_uint16_be req src_port_off) ~payload_len:n;
    Ipv4.write b ~off:ip_off ~src:self_ip ~dst:peer_ip ~proto:Ipv4.udp ~ttl:64
      ~ident:(Bytes.get_uint16_be req ip_ident_off)
      ~payload_len:(Udp.header_size + n);
    Eth.write b ~dst:peer_mac ~src:self_mac Eth.ipv4;
    Some (peer_mac, Bytes.unsafe_to_string b)
  end
  [@@hot.alloc "the minted reply frame is the respond path's one product"]
