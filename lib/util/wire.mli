(** Big-endian byte accessors shared by every header codec: the
    network stack's Eth/Arp/IPv4/UDP/TCP layers and the NIC's raw-frame
    respond path. Setters keep the low bits of the value (a 16-bit
    field stores [v land 0xffff]). *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
(** 32-bit value in an OCaml int (always non-negative on 64-bit). *)

val set_u32 : bytes -> int -> int -> unit
val get_u48 : bytes -> int -> int
val set_u48 : bytes -> int -> int -> unit
