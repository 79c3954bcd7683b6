(** UDP header with pseudo-header checksum, written and parsed in place
    inside a frame buffer; the payload follows the header. *)

type t = { src_port : int; dst_port : int; payload_len : int }

val header_size : int

val write :
  bytes ->
  off:int ->
  src_ip:Addr.ip ->
  dst_ip:Addr.ip ->
  src_port:int ->
  dst_port:int ->
  payload_len:int ->
  unit
(** Fill the header at [off] for the [payload_len] bytes that already
    sit at [off + header_size], checksum included. *)

val decode :
  src_ip:Addr.ip -> dst_ip:Addr.ip -> bytes -> off:int -> len:int ->
  (t, string) result
(** The header of the [len]-byte datagram at [off]; the payload is the
    [payload_len] bytes at [off + header_size]. *)
