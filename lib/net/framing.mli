(** Message framing over byte streams (§5.2).

    Demikernel queues carry atomic scatter-gather arrays, but TCP is a
    byte stream, so the libOS inserts framing: a varint segment count,
    one varint length per segment, then the segment bytes. The decoder
    is incremental — feed it arbitrary stream fragments and it yields
    complete messages only, preserving the original segment
    boundaries. *)

val encode : string list -> string
(** Frame one message made of the given segments. *)

val encode_sga : Dk_mem.Sga.t -> string

type decoder

val create : unit -> decoder

val feed : decoder -> string -> unit
(** Append stream bytes (any fragmentation). *)

val next : decoder -> string list option
(** The next complete message's segments, or [None] if more bytes are
    needed or the stream is {!corrupt}. Total: never raises, whatever
    bytes were fed. *)

val corrupt : decoder -> bool
(** Whether a header that cannot describe a message (a segment count
    above 2{^16}, a negative length, lengths summing past [max_int], a
    varint still unterminated after 9 bytes) has been seen. Sticky: once set, [next] returns [None] and [feed]
    discards its input, so the owner must drop the stream. *)

val buffered : decoder -> int
(** Bytes held awaiting completion. *)
