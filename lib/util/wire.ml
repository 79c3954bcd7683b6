let get_u8 b i = Bytes.get_uint8 b i
let set_u8 b i v = Bytes.set_uint8 b i (v land 0xff)
let get_u16 b i = Bytes.get_uint16_be b i
let set_u16 b i v = Bytes.set_uint16_be b i (v land 0xffff)
let get_u32 b i = (get_u16 b i lsl 16) lor get_u16 b (i + 2)

let set_u32 b i v =
  set_u16 b i (v lsr 16);
  set_u16 b (i + 2) v

let get_u48 b i = (get_u16 b i lsl 32) lor get_u32 b (i + 2)

let set_u48 b i v =
  set_u16 b i (v lsr 32);
  set_u32 b (i + 2) v
