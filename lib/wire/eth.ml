let header_size = 14
let arp = 0x0806
let ipv4 = 0x0800

let write b ~dst ~src ethertype =
  Bytes.set_uint16_be b 0 (dst lsr 32);
  Bytes.set_int32_be b 2 (Int32.of_int dst);
  Bytes.set_uint16_be b 6 (src lsr 32);
  Bytes.set_int32_be b 8 (Int32.of_int src);
  Bytes.set_uint16_be b 12 ethertype

let check b =
  if Bytes.length b < header_size then Some "eth: frame too short" else None
