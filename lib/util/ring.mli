(** Fixed-capacity byte ring buffer (single producer, single consumer).

    Used for TCP send/receive windows, kernel socket buffers and pipe
    buffers. All operations are O(length copied); the buffer never
    reallocates. *)

type t

val create : int -> t
(** [create capacity] is an empty ring holding at most [capacity] bytes.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val length : t -> int
(** Bytes currently stored. *)

val available : t -> int
(** Free space, [capacity t - length t]. *)

val is_empty : t -> bool
val is_full : t -> bool

val write : t -> bytes -> int -> int -> int
(** [write t src off len] appends up to [len] bytes of [src] starting at
    [off]; returns the number of bytes actually written (may be less than
    [len] if the ring fills). *)

val read : t -> bytes -> int -> int -> int
(** [read t dst off len] removes up to [len] bytes into [dst] at [off];
    returns the number of bytes actually read. *)

val peek : t -> bytes -> int -> int -> int
(** Like {!read} but does not consume. *)

val peek_at : t -> skip:int -> bytes -> int -> int -> int
(** [peek_at t ~skip dst off len] is {!peek} of the bytes that start
    [skip] bytes past the read position: it copies up to [len] of them
    and returns how many it copied (0 when [skip >= length t]).
    [peek t] is [peek_at t ~skip:0]. *)

val drop : t -> int -> int
(** [drop t n] discards up to [n] bytes; returns the number dropped. *)

val write_string : t -> string -> int
(** [write_string t s] appends as much of [s] as fits. *)

val read_all : t -> string
(** Consumes and returns the whole contents. *)

val clear : t -> unit
