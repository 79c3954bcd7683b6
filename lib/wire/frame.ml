module Wire = Dk_util.Wire

let ip_off = Eth.header_size
let l4_off = ip_off + Ipv4.header_size
let udp_payload_off = l4_off + Udp.header_size
let tcp_payload_off = l4_off + Tcp_wire.header_size
let udp_max_payload = 0xffff - Ipv4.header_size - Udp.header_size
let ethertype_off = 12
let ip_proto_off = ip_off + 9
let udp_dst_port_off = l4_off + 2

(* The request fields the reply carries back. *)
let src_mac b = Wire.get_u48 b 6
let src_ip b = Wire.get_u32 b (ip_off + 12)
let dst_ip b = Wire.get_u32 b (ip_off + 16)

(* A UDP datagram for [self_mac] that passes the host stack's checks;
   the IPv4 check's length floor vouches for every byte read after it. *)
let udp_request ~self_mac b =
  Option.is_none (Ipv4.check b ~off:ip_off ~len:(Bytes.length b - ip_off))
  && Wire.get_u48 b 0 = self_mac
  && Wire.get_u16 b ethertype_off = 0x0800
  && Wire.get_u8 b ip_proto_off = 17
  && Option.is_none
       (Udp.check ~src_ip:(src_ip b) ~dst_ip:(dst_ip b) b ~off:l4_off
          ~len:(Wire.get_u16 b (ip_off + 2) - Ipv4.header_size))

let udp_reply ~self_mac ~request ~payload =
  let req = Bytes.unsafe_of_string request in
  let n = String.length payload in
  if n > udp_max_payload || not (udp_request ~self_mac req) then None
  else begin
    let b = Bytes.create (udp_payload_off + n) in
    Bytes.blit_string payload 0 b udp_payload_off n;
    Udp.write b ~off:l4_off ~src_ip:(dst_ip req) ~dst_ip:(src_ip req)
      ~src_port:(Wire.get_u16 req udp_dst_port_off)
      ~dst_port:(Wire.get_u16 req l4_off) ~payload_len:n;
    Ipv4.write b ~off:ip_off ~src:(dst_ip req) ~dst:(src_ip req)
      ~proto:Ipv4.Udp ~ttl:64 ~ident:(Wire.get_u16 req (ip_off + 4))
      ~payload_len:(Udp.header_size + n);
    Eth.write b ~dst:(src_mac req) ~src:self_mac Eth.Ipv4;
    Some (src_mac req, Bytes.unsafe_to_string b)
  end
  [@@hot.alloc "the minted reply frame is the respond path's one product"]
