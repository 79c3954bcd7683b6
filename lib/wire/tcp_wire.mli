(** TCP header (20 bytes, no options) with pseudo-header checksum,
    written and parsed in place inside a frame buffer. Sequence numbers
    are full 32-bit values; comparisons that must respect wraparound
    live in {!Tcp}. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** 32-bit *)
  ack_seq : int;
  flags : flags;
  window : int;
  payload : bytes;
  payload_off : int;
  payload_len : int;
      (** The payload is a view: [payload_len] bytes of [payload] at
          [payload_off]. On receive it points into the frame; a
          segment with no payload may carry [Bytes.empty]. *)
}

val header_size : int
val no_flags : flags

val write : bytes -> off:int -> src_ip:int -> dst_ip:int -> t -> unit
(** Fill the header at [off] from [t]'s fields and checksum it together
    with the payload, which must already sit right behind the header:
    a segment with a payload has [payload == b] and
    [payload_off = off + header_size].
    @raise Invalid_argument when it does not. *)

val decode :
  src_ip:int -> dst_ip:int -> bytes -> off:int -> len:int ->
  (t, string) result
(** The [len]-byte segment at [off]; the payload view points into [b]
    (nothing is copied). *)
