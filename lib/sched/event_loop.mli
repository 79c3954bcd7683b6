(** libevent-style callback dispatch over Demikernel queues (§4.4).

    The paper plans "a libevent-based Demikernel OS, which would enable
    applications, like memcached, to achieve the benefits of
    kernel-bypass transparently". This module is that adapter: register
    a handler per queue and the loop keeps the pops outstanding,
    invoking the handler once per complete message — replacing an
    application-level epoll loop with [wait_any] semantics (exactly one
    handler fires per completion, with the data already in hand).

    Every callback server in the tree runs on it: [Dk_apps.Echo] and
    [Dk_apps.Kv_app] (TCP and UDP), the shard servers of
    [Dk_shard_rt.Runtime], the E2, E8, E11 and E13 benches, and the
    [rdma_pingpong] and [event_server] examples. *)

type t

val create : Demikernel.Demi.t -> t

val on_accept : t -> Demikernel.Types.qd -> (Demikernel.Types.qd -> unit) -> unit
(** Watch a listening queue; the callback receives each new
    connection's queue descriptor. *)

val on_message :
  t -> Demikernel.Types.qd -> (Dk_mem.Sga.t -> unit) -> unit
(** Watch a data queue; the callback receives each popped element, and
    the next pop is issued once it returns. *)

val on_close : t -> Demikernel.Types.qd -> (Demikernel.Types.error -> unit) -> unit
(** Invoked once when a watched queue fails/closes; the queue is then
    unwatched. *)

val send : t -> Demikernel.Types.qd -> Dk_mem.Sga.t -> unit
(** Push without waiting; the completion is discarded. A push that
    fails ends the queue's watch and calls its [on_close]. *)

val unwatch : t -> Demikernel.Types.qd -> unit
(** Stop delivering events for this queue (in-flight pops may still
    deliver one last message). *)

val run : t -> until:(unit -> bool) -> bool
(** Drive the simulation until the predicate holds; [false] if events
    ran dry first. Handlers run from inside this loop. *)

val watched : t -> int
