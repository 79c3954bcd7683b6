(* Raw Ethernet/IPv4/UDP frame handling for the NIC rx pipeline.

   The device has no network stack — when a [Prog.Respond] verdict
   fires it must validate the request frame and mint the reply from raw
   bytes, exactly the byte layout [lib/net]'s Eth/Ipv4/Udp codecs emit
   and verify. Both request checksums are checked before a response is
   trusted: a corrupted frame (Nic_rx_corrupt) whose key bytes changed
   must fall through to the host (whose stack will reject it) rather
   than answer for the wrong key. *)

let header_bytes = 42 (* 14 eth + 20 ipv4 + 8 udp *)

module Wire = Dk_util.Wire

(* Frames arrive and leave as strings; the accessors read bytes. *)
let get_u16 s i = Wire.get_u16 (Bytes.unsafe_of_string s) i
let get_u32 s i = Wire.get_u32 (Bytes.unsafe_of_string s) i
let get_u48 s i = Wire.get_u48 (Bytes.unsafe_of_string s) i

(* The UDP header starts at 34. *)
let udp_checksum ~src_ip ~dst_ip b ~len =
  Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:17 b 34 len

(* A frame is a valid UDP request for [self_mac] iff every layer
   parses, is addressed to us at L2, and both the IPv4 header checksum
   and the UDP checksum (pseudo-header included) verify. *)
let valid ~self_mac s =
  let n = String.length s in
  if n < header_bytes then false
  else if get_u48 s 0 <> self_mac then false
  else if get_u16 s 12 <> 0x0800 then false
  else if Char.code s.[14] <> 0x45 then false
  else if Char.code s.[23] <> 17 then false
  else
    let b = Bytes.unsafe_of_string s in
    if not (Dk_util.Checksum.verify b 14 20) then false
    else
      let total = get_u16 s 16 in
      if total < 28 || 14 + total > n then false
      else
        let ulen = get_u16 s 38 in
        if ulen < 8 || 34 + ulen > 14 + total then false
        else
          udp_checksum ~src_ip:(get_u32 s 26) ~dst_ip:(get_u32 s 30) b
            ~len:ulen
          = 0

(* Mint the reply frame for a validated request: swap src/dst at every
   layer, carry [payload], recompute lengths and both checksums so the
   requester's host stack accepts it. Returns [(dst_mac, frame)], or
   [None] when the request fails validation or the reply would not fit
   a 16-bit length field. *)
let reply ~self_mac ~request ~payload =
  if not (valid ~self_mac request) then None
  else
    let plen = String.length payload in
    let ulen = 8 + plen in
    let total = 20 + ulen in
    if total > 0xffff then None
    else begin
      let b = Bytes.create (14 + total) in
      (* eth: back to the requester, from us *)
      Wire.set_u48 b 0 (get_u48 request 6);
      Wire.set_u48 b 6 self_mac;
      Wire.set_u16 b 12 0x0800;
      (* ipv4: swapped addresses, fresh checksum *)
      Bytes.set b 14 '\x45';
      Bytes.set b 15 '\000';
      Wire.set_u16 b 16 total;
      Wire.set_u16 b 18 (get_u16 request 18); (* reuse the request ident *)
      Wire.set_u16 b 20 0;
      Bytes.set b 22 '\064'; (* ttl 64 *)
      Bytes.set b 23 '\017';
      Wire.set_u16 b 24 0;
      Bytes.blit_string request 30 b 26 4; (* src ip := request dst ip *)
      Bytes.blit_string request 26 b 30 4; (* dst ip := request src ip *)
      Wire.set_u16 b 24 (Dk_util.Checksum.compute b 14 20);
      (* udp: swapped ports, pseudo-header checksum *)
      Bytes.blit_string request 36 b 34 2; (* src port := request dst *)
      Bytes.blit_string request 34 b 36 2; (* dst port := request src *)
      Wire.set_u16 b 38 ulen;
      Wire.set_u16 b 40 0;
      Bytes.blit_string payload 0 b header_bytes plen;
      let csum =
        udp_checksum ~src_ip:(get_u32 request 30)
          ~dst_ip:(get_u32 request 26) b ~len:ulen
      in
      Wire.set_u16 b 40 (if csum = 0 then 0xffff else csum);
      Some (get_u48 request 6, Bytes.unsafe_to_string b)
    end
  [@@hot.alloc "the minted reply frame is the respond path's one product"]
