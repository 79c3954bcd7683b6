(** UDP header with pseudo-header checksum, written and parsed in place
    inside a frame buffer; the payload follows the header. *)

type t = { src_port : int; dst_port : int; payload_len : int }

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
    nothing; {!decode} and {!Frame.udp_reply} both run it. *)

val decode :
  src_ip:int -> dst_ip:int -> bytes -> off:int -> len:int ->
  (t, string) result
(** {!check}, then the header's fields; the payload is the
    [payload_len] bytes at [off + header_size]. *)
