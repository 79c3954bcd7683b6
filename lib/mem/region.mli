(** A contiguous memory region, the unit of device registration.

    The Demikernel memory manager (§4.5) registers whole regions with
    kernel-bypass devices once, instead of asking applications to
    register every I/O buffer. Registered regions are pinned: the bytes
    backing them cannot move for the region's lifetime (OCaml bytes are
    immovable by construction here; the flag models the *cost* and
    accounting of pinning). *)

type t

val create : id:int -> size:int -> t
val id : t -> int
val size : t -> int
val store : t -> bytes

val pin : t -> unit
val pinned : t -> bool

val pages : t -> int
(** Number of 4 KB pages covered, for pinning-cost accounting. *)
