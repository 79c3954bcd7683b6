(** IPv4 header (20 bytes, no options) with header checksum, written
    in place inside a frame buffer and read there by offset: the total
    length at byte 2, the ident at 4, the TTL at 8, the protocol at 9,
    the source and destination addresses (32-bit ints) at 12 and 16.
    The payload follows the header. *)

val header_size : int

(** The protocol numbers the stack speaks: TCP (6) and UDP (17). *)
val tcp : int
val udp : int

val write :
  bytes ->
  off:int ->
  src:int ->
  dst:int ->
  proto:int ->
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
    nothing; the host stack and {!Frame.udp_reply} both run it, and
    every header field is in bounds once it passes. *)
