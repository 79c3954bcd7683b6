module Wire = Dk_util.Wire

type ethertype = Arp | Ipv4 | Unknown of int

type t = { dst : int; src : int; ethertype : ethertype }

let header_size = 14

let ethertype_to_int = function
  | Arp -> 0x0806
  | Ipv4 -> 0x0800
  | Unknown v -> v

let ethertype_of_int = function
  | 0x0806 -> Arp
  | 0x0800 -> Ipv4
  | v -> Unknown v

let write b ~dst ~src ethertype =
  Wire.set_u48 b 0 dst;
  Wire.set_u48 b 6 src;
  Wire.set_u16 b 12 (ethertype_to_int ethertype)

let decode b =
  if Bytes.length b < header_size then Error "eth: frame too short"
  else
    Ok
      {
        dst = Wire.get_u48 b 0;
        src = Wire.get_u48 b 6;
        ethertype = ethertype_of_int (Wire.get_u16 b 12);
      }
