(** mTCP-style user-level TCP with a POSIX-ish interface (§6).

    mTCP removes the kernel from the data path but keeps the legacy
    abstraction: data is still copied at the API boundary, and packets
    are processed in batches to amortise per-packet costs. Batching
    helps throughput but *adds* latency — the paper's observation that
    mTCP's "latency was higher than the Linux kernel's". Here each
    direction pays [Cost.mtcp_batch_delay] before data moves between
    the application and the underlying user-level stack, plus POSIX
    copy costs. *)

type t
type conn

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  stack:Dk_net.Stack.t ->
  unit ->
  t
(** [stack] keeps its user-level per-packet cost: mTCP's stack runs in
    user space. *)

val listen :
  t -> port:int -> on_accept:(conn -> unit) -> (unit, [ `In_use ]) result

val connect : t -> dst:Dk_net.Addr.endpoint -> conn

val send : conn -> string -> int
(** Copies into the batch buffer; flushed to the wire one batch delay
    later. Returns bytes accepted. *)

val recv_ready : conn -> int

val recv : conn -> int -> string
(** Copies out up to [n] bytes of the app-visible ring. Bytes that
    arrived while the ring was full wait in TCP's receive ring, which
    holds the sender back; they move up one batch delay after [recv]
    frees room. *)

val set_on_connect : conn -> (unit -> unit) -> unit
val set_on_readable : conn -> (unit -> unit) -> unit
val close : conn -> unit
(** Closes TCP once TCP has taken every byte {!send} accepted; a
    connection TCP has already closed drops its unsent tail. *)

val bytes_copied : t -> int
