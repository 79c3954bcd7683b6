(** Ready-element buffer shared by queue implementations.

    Holds completed results until a pop arrives, and pending pop tokens
    until a result arrives. Delivery order is FIFO in both directions,
    and each delivery completes exactly one waiting token. *)

type t

val create : Token.t -> t

val deliver : t -> Types.op_result -> unit
(** An element (or terminal error) is ready: complete the oldest
    waiting pop token, or buffer it. *)

val pop : t -> Types.qtoken -> unit
(** Redeem the oldest buffered element into [token], or queue the token.
    After {!close}, tokens complete immediately with
    [Failed `Queue_closed] once the buffer drains. *)

val close : t -> unit
(** Fail all waiting tokens; buffered elements remain poppable.
    Equivalent to [fail t `Queue_closed]. *)

val fail : t -> Types.error -> unit
(** Terminal failure with a specific error: waiting tokens (and every
    future pop, once the buffer drains) complete [Failed err]. The
    first terminal error wins; later [fail]/[close] calls are no-ops.
    Used to surface [`Conn_aborted] from a timed-out TCP connection or
    [`Io_error] from a dead block device instead of the generic
    [`Queue_closed]. *)

val waiting : t -> int
