(** Ethernet II header, written and parsed in place at the start of a
    frame buffer; the payload follows at {!header_size}. MACs are ints. *)

type ethertype = Arp | Ipv4 | Unknown of int

type t = { dst : int; src : int; ethertype : ethertype }

val header_size : int

val write : bytes -> dst:int -> src:int -> ethertype -> unit
(** Fill the first {!header_size} bytes of a frame. *)

val decode : bytes -> (t, string) result
(** The header of a whole frame; rejects frames shorter than it. *)
