module Wire = Dk_util.Wire

type proto = Tcp | Udp | Unknown of int

type t = {
  src : int;
  dst : int;
  proto : proto;
  ttl : int;
  ident : int;
  payload_len : int;
}

let header_size = 20

let proto_to_int = function Tcp -> 6 | Udp -> 17 | Unknown v -> v
let proto_of_int = function 6 -> Tcp | 17 -> Udp | v -> Unknown v

let write b ~off ~src ~dst ~proto ~ttl ~ident ~payload_len =
  Wire.set_u8 b off 0x45; (* version 4, ihl 5 *)
  Wire.set_u8 b (off + 1) 0;
  Wire.set_u16 b (off + 2) (header_size + payload_len);
  Wire.set_u16 b (off + 4) ident;
  Wire.set_u16 b (off + 6) 0; (* no fragmentation *)
  Wire.set_u8 b (off + 8) ttl;
  Wire.set_u8 b (off + 9) (proto_to_int proto);
  Wire.set_u16 b (off + 10) 0; (* checksum placeholder *)
  Wire.set_u32 b (off + 12) src;
  Wire.set_u32 b (off + 16) dst;
  Wire.set_u16 b (off + 10) (Dk_util.Checksum.compute b off header_size)

let check b ~off ~len =
  if len < header_size then Some "ipv4: too short"
  else if Wire.get_u8 b off <> 0x45 then Some "ipv4: bad version/ihl"
  else if not (Dk_util.Checksum.verify b off header_size) then
    Some "ipv4: bad header checksum"
  else
    let total = Wire.get_u16 b (off + 2) in
    if total > len || total < header_size then Some "ipv4: bad total length"
    else None

let decode b ~off ~len =
  match check b ~off ~len with
  | Some e -> Error e
  | None ->
      Ok
        {
          src = Wire.get_u32 b (off + 12);
          dst = Wire.get_u32 b (off + 16);
          proto = proto_of_int (Wire.get_u8 b (off + 9));
          ttl = Wire.get_u8 b (off + 8);
          ident = Wire.get_u16 b (off + 4);
          payload_len = Wire.get_u16 b (off + 2) - header_size;
        }
