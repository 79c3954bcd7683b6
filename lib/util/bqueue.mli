(** Bounded FIFO queue, the shape of a hardware descriptor ring: a
    fixed array of slots, with no cell per element. *)

type 'a t

val create : int -> 'a t
(** @raise Invalid_argument if capacity is not positive. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [false] when full (the element is not enqueued). *)

val pop : 'a t -> 'a option
(** The slot a pop vacates is overwritten with the first element the
    ring ever held, so a drained ring keeps one stale element reachable,
    not one per slot. *)

val peek : 'a t -> 'a option
