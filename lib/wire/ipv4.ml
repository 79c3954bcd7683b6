let header_size = 20
let tcp = 6
let udp = 17

let write b ~off ~src ~dst ~proto ~ttl ~ident ~payload_len =
  Bytes.set_uint8 b off 0x45; (* version 4, ihl 5 *)
  Bytes.set_uint8 b (off + 1) 0;
  Bytes.set_uint16_be b (off + 2) ((header_size + payload_len) land 0xffff);
  Bytes.set_uint16_be b (off + 4) ident;
  Bytes.set_uint16_be b (off + 6) 0; (* no fragmentation *)
  Bytes.set_uint8 b (off + 8) ttl;
  Bytes.set_uint8 b (off + 9) proto;
  Bytes.set_uint16_be b (off + 10) 0; (* checksum placeholder *)
  Bytes.set_int32_be b (off + 12) (Int32.of_int src);
  Bytes.set_int32_be b (off + 16) (Int32.of_int dst);
  Bytes.set_uint16_be b (off + 10) (Dk_util.Checksum.compute b off header_size)

let check b ~off ~len =
  if len < header_size then Some "ipv4: too short"
  else if Bytes.get_uint8 b off <> 0x45 then Some "ipv4: bad version/ihl"
  else if not (Dk_util.Checksum.verify b off header_size) then
    Some "ipv4: bad header checksum"
  else
    let total = Bytes.get_uint16_be b (off + 2) in
    if total > len || total < header_size then Some "ipv4: bad total length"
    else None
