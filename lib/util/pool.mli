(** A pool of reusable descriptors, each named by an int id.

    A descriptor is a mutable record made once and then taken and
    released any number of times, the way a device driver recycles the
    slots of a descriptor ring. The free list holds ids, not
    descriptors, so {!release} writes no pointer: OCaml 5's write
    barrier charges every pointer store into a long-lived block. A
    released descriptor keeps whatever its fields held until it is
    taken again, so the stale values a pool keeps reachable are bounded
    by the most descriptors it ever had taken at once, doubled. *)

type ('c, 'a) t
(** A pool of ['a] descriptors made in a context ['c]: the device that
    owns the pool, which {!take} is given, so a device can hold its
    pools without being a recursive value. *)

val create : ('c -> int -> 'a) -> ('c, 'a) t
(** An empty pool. [make c id] builds descriptor [id] the first time
    the pool needs that many; the descriptor must remember its id,
    which {!release} takes. *)

val take : ('c, 'a) t -> 'c -> 'a
(** A free descriptor. When none is free the pool doubles. *)

val release : ('c, 'a) t -> int -> 'a
(** Return descriptor [id] to the free list, and the descriptor itself:
    copy its fields out before anything takes it again. Releasing a
    descriptor that is not taken breaks the pool. *)
