(** Ethernet II header, written in place at the start of a frame buffer
    and read there by offset: the destination MAC at byte 0, the source
    MAC at 6 (48-bit ints), the ethertype at 12; the payload follows at
    {!header_size}. *)

val header_size : int

(** The ethertypes the stack speaks: ARP (0x0806) and IPv4 (0x0800). *)
val arp : int
val ipv4 : int

val write : bytes -> dst:int -> src:int -> int -> unit
(** [write b ~dst ~src ethertype] fills the first {!header_size} bytes
    of a frame. *)

val check : bytes -> string option
(** Why the frame cannot hold a header, if it cannot: it is shorter
    than {!header_size}. Allocates nothing. *)
