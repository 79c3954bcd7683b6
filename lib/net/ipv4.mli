(** IPv4 header (20 bytes, no options) with header checksum, written
    and parsed in place inside a frame buffer; the payload follows the
    header. *)

type proto = Tcp | Udp | Unknown of int

type t = {
  src : Addr.ip;
  dst : Addr.ip;
  proto : proto;
  ttl : int;
  ident : int;
  payload_len : int;  (** bytes after the header, per the total length *)
}

val header_size : int

val write :
  bytes ->
  off:int ->
  src:Addr.ip ->
  dst:Addr.ip ->
  proto:proto ->
  ttl:int ->
  ident:int ->
  payload_len:int ->
  unit
(** Fill the header at [off], checksum included. The total-length
    field keeps the low 16 bits of [header_size + payload_len]. *)

val decode : bytes -> off:int -> len:int -> (t, string) result
(** The header of the [len]-byte packet at [off]. Rejects short
    packets, bad versions, checksum mismatches and total lengths
    outside [header_size, len]. *)
