let header_size = 20
let fin = 0x01
let syn = 0x02
let rst = 0x04
let ack = 0x10

let write b ~off ~src_ip ~dst_ip ~src_port ~dst_port ~seq ~ack_seq ~flags
    ~window ~payload_len =
  if off + header_size + payload_len > Bytes.length b then
    invalid_arg "Tcp_wire.write: payload not behind the header";
  Bytes.set_uint16_be b off src_port;
  Bytes.set_uint16_be b (off + 2) dst_port;
  Bytes.set_int32_be b (off + 4) (Int32.of_int seq);
  Bytes.set_int32_be b (off + 8) (Int32.of_int ack_seq);
  Bytes.set_uint8 b (off + 12) 0x50; (* data offset = 5 words *)
  Bytes.set_uint8 b (off + 13) flags;
  Bytes.set_uint16_be b (off + 14) window;
  Bytes.set_uint16_be b (off + 16) 0; (* checksum placeholder *)
  Bytes.set_uint16_be b (off + 18) 0; (* urgent pointer *)
  Bytes.set_uint16_be b (off + 16)
    (Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:6 b off
       (header_size + payload_len))

let check ~src_ip ~dst_ip b ~off ~len =
  if len < header_size then Some "tcp: too short"
  else if
    Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:6 b off len <> 0
  then Some "tcp: bad checksum"
  else if Bytes.get_uint8 b (off + 12) lsr 4 <> 5 then
    Some "tcp: options unsupported"
  else None
