(** RFC 1071 Internet checksum, used by the IPv4/UDP/TCP layers of the
    user-level network stack. *)

val ones_complement_sum : ?init:int -> bytes -> int -> int -> int
(** [ones_complement_sum ?init buf off len] folds the 16-bit one's
    complement sum of [len] bytes at [off] into [init] (default 0).
    The result is a partial sum, not yet complemented: exactly the
    integer sum of [init] and the region's big-endian 16-bit words (an
    odd last byte counts as the high byte of a word). It is computed
    with 64-bit loads and allocates nothing. *)

val pseudo_header_sum : src:int -> dst:int -> proto:int -> len:int -> int
(** Partial sum of the 12-byte TCP/UDP pseudo header (32-bit source
    and destination addresses, protocol, 16-bit transport length), to
    pass as [init] when summing a transport segment. Equal to
    [ones_complement_sum] over the materialized header. *)

val finish : int -> int
(** Fold carries and take the one's complement, yielding the 16-bit
    checksum value to store in a header. *)

val compute : bytes -> int -> int -> int
(** [compute buf off len] is [finish (ones_complement_sum buf off len)]. *)

val transport : src:int -> dst:int -> proto:int -> bytes -> int -> int -> int
(** [transport ~src ~dst ~proto buf off len] is the checksum of the
    [len]-byte TCP/UDP segment at [off] together with its pseudo header:
    the value to store when the segment's checksum field is zero, and 0
    when the field is filled in and the segment is intact. *)

val verify : bytes -> int -> int -> bool
(** A region whose checksum field is filled in verifies iff the sum over
    the whole region (including the field) folds to zero. *)
