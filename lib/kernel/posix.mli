(** POSIX-style kernel interface: file descriptors, non-blocking
    sockets, pipes and epoll — the legacy abstraction the Demikernel
    replaces (§3.2).

    Every call charges one syscall crossing; reads and writes charge a
    user/kernel copy of the bytes moved (the copy §3.2 calls "both
    inefficient and unnecessary"); socket data additionally pays the
    kernel network stack per segment (in the underlying kernel-flavored
    {!Dk_net.Stack}). All calls are non-blocking, as in a typical
    epoll-driven server. *)

type t
type fd = int

type error =
  [ `Bad_fd | `Again | `In_use | `Not_supported | `Connection_closed ]

type stats = { syscalls : int; bytes_copied : int }

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  stack:Dk_net.Stack.t ->
  unit ->
  t
(** [stack] should be created with
    [~pkt_cost:cost.kernel_net_per_pkt] to model the in-kernel stack. *)

(** {2 Sockets} *)

val socket : t -> fd

val listen : t -> fd -> port:int -> (unit, error) result

val accept : t -> fd -> (fd, error) result
(** [`Again] when no pending connection. *)

val connect : t -> fd -> dst:Dk_net.Addr.endpoint -> (unit, error) result
(** Starts a non-blocking connect; completion is observable via
    {!connected} or epoll [`Out] readiness. *)

val connected : t -> fd -> bool

val read : t -> fd -> bytes -> int -> int -> (int, error) result
(** [read t fd buf off len]: [Ok 0] means EOF; [`Again] means no data
    yet. Charges syscall + demux + copy of the bytes returned. *)

val write : t -> fd -> ?off:int -> string -> (int, error) result
(** [write t fd ~off data] writes the bytes of [data] from [off]
    (default 0) on. Partial writes happen under backpressure; [`Again]
    when the socket buffer is full. A caller with a partly written
    message keeps a cursor and passes it as [off]. *)

val close : t -> fd -> unit

(** {2 Pipes} *)

val pipe : t -> fd * fd
(** (read end, write end). *)

(** {2 Epoll}

    Level-triggered readiness. [epoll_wait] charges one syscall and
    returns currently-ready interests; the "wakes every waiting thread"
    behaviour of shared epoll sets is modelled in [Dk_sched.Worker_pool]
    on top of this. *)

type event = [ `In | `Out ]

val epoll_create : t -> fd
val epoll_add : t -> fd -> fd -> event list -> (unit, error) result
val epoll_del : t -> fd -> fd -> unit
val epoll_wait : t -> fd -> max:int -> (fd * event) list

val epoll_wait_block :
  t -> fd -> max:int -> ((fd * event) list -> unit) -> unit
(** Blocking epoll_wait: if something is ready the continuation runs
    immediately (one syscall); otherwise the calling thread sleeps and
    is woken — one context switch — when a registered socket becomes
    ready. Only socket events (readable/writable/accept/close) wake a
    blocked waiter. *)

val readable : t -> fd -> bool

val stats : t -> stats
