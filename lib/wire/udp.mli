(** UDP header with pseudo-header checksum, written in place inside a
    frame buffer and read there by offset: the source port at byte 0,
    the destination port at 2, the length (header included) at 4. The
    payload follows the header. *)

val header_size : int

val write :
  bytes ->
  off:int ->
  src_ip:int ->
  dst_ip:int ->
  src_port:int ->
  dst_port:int ->
  payload_len:int ->
  unit
(** Fill the header at [off] for the [payload_len] bytes that already
    sit at [off + header_size], checksum included. *)

val check :
  src_ip:int -> dst_ip:int -> bytes -> off:int -> len:int -> string option
(** Why the header of the [len]-byte datagram at [off] is invalid, if
    it is: a short datagram, a length outside [header_size, len] or a
    bad checksum (pseudo-header included), in that order. Allocates
    nothing; the host stack and {!Frame.udp_reply} both run it. Once it
    passes, the payload is the [length - header_size] bytes at
    [off + header_size]. *)
