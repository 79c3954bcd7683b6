(** TCP header (20 bytes, no options) with pseudo-header checksum,
    written in place inside a frame buffer and read there by offset:
    the source and destination ports at bytes 0 and 2, the sequence
    and acknowledgement numbers (full 32-bit values) at 4 and 8, the
    data offset at 12, the flags at 13, the window at 14. The payload
    follows the header. Comparisons that must respect sequence
    wraparound live in {!Tcp}. *)

val header_size : int

(** The flag bits the stack speaks; a segment's flags are their [lor]. *)
val fin : int
val syn : int
val rst : int
val ack : int

val write :
  bytes ->
  off:int ->
  src_ip:int ->
  dst_ip:int ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack_seq:int ->
  flags:int ->
  window:int ->
  payload_len:int ->
  unit
(** Fill the header at [off] and checksum it together with the
    [payload_len] bytes of payload, which must already sit right behind
    it, at [off + header_size].
    @raise Invalid_argument when [b] ends before them. *)

val check :
  src_ip:int -> dst_ip:int -> bytes -> off:int -> len:int -> string option
(** Why the [len]-byte segment at [off] is invalid, if it is: shorter
    than a header, a bad checksum (pseudo-header included) or a data
    offset other than 5 words (options are unsupported), in that order.
    Allocates nothing. Once it passes, every header field is in bounds
    and the payload is the [len - header_size] bytes behind the
    header. *)
