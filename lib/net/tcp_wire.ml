module Wire = Dk_util.Wire

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_seq : int;
  flags : flags;
  window : int;
  payload : bytes;
  payload_off : int;
  payload_len : int;
}

let header_size = 20
let no_flags = { syn = false; ack = false; fin = false; rst = false }

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor if f.ack then 0x10 else 0

let flags_of_int v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    ack = v land 0x10 <> 0;
  }

let write b ~off ~src_ip ~dst_ip t =
  if t.payload_len > 0
     && not (t.payload == b && t.payload_off = off + header_size)
  then invalid_arg "Tcp_wire.write: payload not behind the header";
  Wire.set_u16 b off t.src_port;
  Wire.set_u16 b (off + 2) t.dst_port;
  Wire.set_u32 b (off + 4) t.seq;
  Wire.set_u32 b (off + 8) t.ack_seq;
  Wire.set_u8 b (off + 12) 0x50; (* data offset = 5 words *)
  Wire.set_u8 b (off + 13) (flags_to_int t.flags);
  Wire.set_u16 b (off + 14) t.window;
  Wire.set_u16 b (off + 16) 0; (* checksum placeholder *)
  Wire.set_u16 b (off + 18) 0; (* urgent pointer *)
  Wire.set_u16 b (off + 16)
    (Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:6 b off
       (header_size + t.payload_len))

let decode ~src_ip ~dst_ip b ~off ~len =
  if len < header_size then Error "tcp: too short"
  else if
    Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:6 b off len <> 0
  then Error "tcp: bad checksum"
  else if Wire.get_u8 b (off + 12) lsr 4 <> 5 then
    Error "tcp: options unsupported"
  else
    Ok
      {
        src_port = Wire.get_u16 b off;
        dst_port = Wire.get_u16 b (off + 2);
        seq = Wire.get_u32 b (off + 4);
        ack_seq = Wire.get_u32 b (off + 8);
        flags = flags_of_int (Wire.get_u8 b (off + 13));
        window = Wire.get_u16 b (off + 14);
        payload = b;
        payload_off = off + header_size;
        payload_len = len - header_size;
      }
