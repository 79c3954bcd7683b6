(** Kernel pipe object: a bounded byte stream with no message
    boundaries — the abstraction §3.2 criticises ("UNIX pipes force
    applications to operate on streams of data"). Costs (syscall, copy)
    are charged by the {!Posix} layer that wraps it in file
    descriptors. *)

type t

val create : ?capacity:int -> unit -> t
val write : t -> ?off:int -> string -> int
(** [write t ~off data] offers the bytes of [data] from [off] (default
    0) on; returns how many were accepted ([0] when full — EAGAIN). *)

val read : t -> int -> string
(** Up to [n] bytes; [""] when empty. Message boundaries are lost. *)

val readable : t -> int
val writable : t -> int
val close_write : t -> unit
val eof : t -> bool
(** True when the write end is closed and the buffer is drained. *)
