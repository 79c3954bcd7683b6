let header_size = 8

let write b ~off ~src_ip ~dst_ip ~src_port ~dst_port ~payload_len =
  let len = header_size + payload_len in
  Bytes.set_uint16_be b off src_port;
  Bytes.set_uint16_be b (off + 2) dst_port;
  Bytes.set_uint16_be b (off + 4) len;
  Bytes.set_uint16_be b (off + 6) 0;
  let csum =
    Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:17 b off len
  in
  Bytes.set_uint16_be b (off + 6) (if csum = 0 then 0xffff else csum)

let check ~src_ip ~dst_ip b ~off ~len =
  if len < header_size then Some "udp: too short"
  else
    let ulen = Bytes.get_uint16_be b (off + 4) in
    if ulen < header_size || ulen > len then Some "udp: bad length"
    else if
      Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:17 b off ulen
      <> 0
    then Some "udp: bad checksum"
    else None
