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

val fits : Dk_mem.Sga.t -> bool
(** Whether the decoder accepts the message an sga frames into: a body
    of at most {!max_message} bytes in at most 2{^16} segments. A peer
    aborts the stream a message that does not fit arrives on, so the
    TCP, POSIX and file queues check before framing and fail such a
    push [`Not_supported], as a UDP queue fails a datagram too big to
    send. *)

type decoder

val create : unit -> decoder

val max_message : int
(** The most body bytes one message may declare: 16 MiB, the sum of
    its segment lengths. A header that declares more makes the stream
    {!corrupt} as soon as [next] or [next_sga] reads it, so the decoder
    never waits for, or buffers, the body it announces. *)

(** {2 Filling the decoder}

    [feed] takes bytes the caller already holds. [fill] lets the
    reader of a byte stream write straight into the decoder's backlog,
    so no intermediate copy is made. *)

val feed : decoder -> string -> unit
(** Append stream bytes (any fragmentation). *)

val fill :
  decoder ->
  int ->
  ('src -> bytes -> int -> int -> (int, 'e) result) ->
  'src ->
  (int, 'e) result
(** [fill t k read src] makes room for [k] bytes past the backlog and
    calls [read src buf off k]. The reader writes up to [k] bytes at
    [buf.[off]] and returns [Ok n] for the [n] it wrote: those bytes
    are appended, as {!feed} appends them. [fill] returns what [read]
    returned. The reader must not keep [buf]. On a corrupt decoder
    the reader still runs, so its source is drained, and what it wrote
    is discarded. *)

(** {2 Taking messages out}

    Both share one header parser and one set of {!corrupt} rules; they
    differ in how they copy a complete message out of the backlog.
    [next_sga] is the libOS receive path. [next] stays for callers that
    work on strings: the POSIX kv server and client, and the
    benchmark's framing replay. *)

val next : decoder -> string list option
(** The next complete message's segments, each a fresh string, or
    [None] if more bytes are needed or the stream is {!corrupt}.
    Total: never raises, whatever bytes were fed. *)

val next_sga : decoder -> Dk_mem.Sga.t option
(** {!next} as one scatter-gather array: the message body is copied
    once into a store of its own, and each segment is an unmanaged
    {!Dk_mem.Buffer.view} of it. The store is never the backlog, so
    the sga is unaffected by later fills. *)

val corrupt : decoder -> bool
(** Whether a header that cannot describe a message (a segment count
    above 2{^16}, a negative length, lengths summing past
    {!max_message}, a varint still unterminated after 9 bytes) has
    been seen. Sticky: once set, [next] and [next_sga] return [None],
    and [feed] and [fill] discard their input, so the owner must drop
    the stream. *)

val buffered : decoder -> int
(** Bytes held awaiting completion. *)
