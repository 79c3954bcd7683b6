(** IPv4 header (20 bytes, no options) with header checksum, written
    and parsed in place inside a frame buffer; the payload follows the
    header. Addresses are 32-bit ints. *)

type proto = Tcp | Udp | Unknown of int

type t = {
  src : int;
  dst : int;
  proto : proto;
  ttl : int;
  ident : int;
  payload_len : int;  (** bytes after the header, per the total length *)
}

val header_size : int

val write :
  bytes ->
  off:int ->
  src:int ->
  dst:int ->
  proto:proto ->
  ttl:int ->
  ident:int ->
  payload_len:int ->
  unit
(** Fill the header at [off], checksum included. The total-length
    field keeps the low 16 bits of [header_size + payload_len]. *)

val check : bytes -> off:int -> len:int -> string option
(** Why the header of the [len]-byte packet at [off] is invalid, if it
    is: a short packet, a bad version or IHL, a checksum mismatch or a
    total length outside [header_size, len], in that order. Allocates
    nothing; {!decode} and {!Frame.udp_reply} both run it. *)

val decode : bytes -> off:int -> len:int -> (t, string) result
(** {!check}, then the header's fields. *)
