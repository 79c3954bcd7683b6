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
    needed. @raise Failure on a corrupt stream (length fields that
    cannot be decoded). *)

val buffered : decoder -> int
(** Bytes held awaiting completion. *)
