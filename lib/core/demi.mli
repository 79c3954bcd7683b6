(** The Demikernel runtime and system-call interface (Figure 3).

    One [Demi.t] per application/host. It bundles the libOS pieces: the
    token table, the memory manager (with transparent device
    registration, §4.5), the queue-descriptor table, and whichever
    kernel-bypass devices the host has — a NIC with a user-level stack
    (DPDK-class), an RDMA NIC, and/or an NVMe-class block device.

    {b Control path} calls ([socket], [bind], [listen], [connect],
    [accept], [fopen] ...) may block: they drive the simulation until
    the operation resolves, mirroring the paper's slow-path/kernel
    split. {b Data path} calls ([push], [pop]) never block: they return
    qtokens redeemed via the [wait_*] family. *)

type t

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  ?stack:Dk_net.Stack.t ->
  ?posix:Dk_kernel.Posix.t ->
  ?rdma:Dk_device.Rdma.t ->
  ?block:Dk_device.Block.t ->
  ?sanitize:bool ->
  unit ->
  t
(** [stack] gives kernel-bypass networking (DPDK-class). [posix] gives
    the kernel-fallback libOS instead: same interface, every operation
    through the legacy kernel (used when a host has no accelerator —
    the portability backstop). When both are provided, [stack] wins.

    [sanitize] (default: [DK_SANITIZE] in the environment) turns on
    sanitizer mode for the whole libOS instance: the memory manager's
    canary/poison/use-after-free checks ({!Dk_mem.Manager.create}) and
    the token table's exactly-once audit ({!Token.create}). *)

val engine : t -> Dk_sim.Engine.t
val cost : t -> Dk_sim.Cost.t
val manager : t -> Dk_mem.Manager.t
val registry : t -> Dk_mem.Registry.t
val outstanding_tokens : t -> int

val sanitized : t -> bool

val check_shutdown : t -> int * Dk_mem.Manager.leak list
(** Sanitizer-mode shutdown sweep: report (via {!Dk_mem.Dk_check}) any
    token still dangling and any allocation still live, returning
    (dangling count, leaks). Meaningful once the application believes
    all I/O has drained. *)

(** {2 Memory (§4.5)} *)

val sga_alloc : t -> string -> (Dk_mem.Sga.t, Types.error) result
(** A managed single-segment sga holding the string; its region is
    already registered with every attached device — no explicit
    registration call exists in this interface. *)

val sga_alloc_segs : t -> string list -> (Dk_mem.Sga.t, Types.error) result
val sga_free : t -> Dk_mem.Sga.t -> unit

(** {2 Control path: network} *)

val socket : t -> [ `Tcp | `Udp ] -> (Types.qd, Types.error) result
val bind : t -> Types.qd -> port:int -> (unit, Types.error) result
val listen : t -> Types.qd -> (unit, Types.error) result

val accept_async : t -> Types.qd -> (Types.qtoken, Types.error) result
(** Completes with [Accepted qd]. *)

val accept : t -> Types.qd -> (Types.qd, Types.error) result
(** Blocking accept (drives the simulation). *)

val connect :
  t -> Types.qd -> dst:Dk_net.Addr.endpoint -> (unit, Types.error) result
(** TCP: blocks until ESTABLISHED or failure. UDP: sets the default
    peer (binding an ephemeral port if unbound). *)

val close : t -> Types.qd -> (unit, Types.error) result

(** {2 Control path: RDMA} *)

val rdma_endpoint :
  t -> ?depth:int -> Dk_device.Rdma.qp -> (Types.qd, Types.error) result
(** Wrap an already-connected queue pair (connection management is
    out-of-band control path) as an I/O queue with libOS-provided
    buffer management and flow control. *)

(** {2 Control path: storage} *)

val fcreate : t -> string -> (Types.qd, Types.error) result
(** Create a named log-structured file queue (§5.3). *)

val fopen : t -> string -> (Types.qd, Types.error) result
(** Re-open an existing file queue, recovering its length by scanning
    the device log (blocks while the scan runs). *)

(** {2 Control path: queues} *)

val queue : t -> Types.qd
(** A plain in-memory queue. *)

val merge : t -> Types.qd -> Types.qd -> (Types.qd, Types.error) result

val filter :
  t -> Types.qd -> Dk_device.Prog.pred -> (Types.qd, Types.error) result
(** Filter with a verified program. If the descriptor is a bound UDP
    queue on a programmable NIC, the program compiles to a [Drop] stage
    of the NIC's rx pipeline (see {!offload_udp_pipeline}) — dropped
    messages then cost zero CPU; otherwise it runs on the CPU per
    element (§4.3). The original descriptor is subsumed by the returned
    one. *)

val filter_fn :
  t -> Types.qd -> (Dk_mem.Sga.t -> bool) -> (Types.qd, Types.error) result
(** Arbitrary OCaml predicate: always CPU. *)

val map : t -> Types.qd -> Dk_device.Prog.map -> (Types.qd, Types.error) result
val map_fn :
  t -> Types.qd -> (Dk_mem.Sga.t -> Dk_mem.Sga.t) -> (Types.qd, Types.error) result

val sort :
  t ->
  Types.qd ->
  (Dk_mem.Sga.t -> Dk_mem.Sga.t -> bool) ->
  (Types.qd, Types.error) result

val steer :
  t ->
  Types.qd ->
  ways:int ->
  hash_off:int ->
  hash_len:int ->
  (Types.qd list, Types.error) result
(** Key-based steering (§4.3: "improve cache utilization by steering
    I/O to CPUs based on application-specific parameters (e.g., keys in
    a key-value store)"). Partitions the parent's elements across
    [ways] queues by a hash of the byte range [hash_off, hash_off +
    hash_len): each element lands on exactly one output queue, FIFO per
    way. The classification runs on the CPU, at the filter rate over
    [hash_len] bytes per element. *)

val qconnect : t -> src:Types.qd -> dst:Types.qd -> (unit, Types.error) result

val filter_offloaded : t -> Types.qd -> bool
(** Whether the given (filtered) queue's program runs on the device. *)

(** {2 Deep NIC offload: rx pipelines and the device-resident table}

    Payload-level {!Dk_device.Prog.pipeline} stages installed on a
    bound UDP queue compile to frame-level stages (offsets shifted past
    the 42-byte headers, every guard conjoined with the port match) and
    load onto the programmable NIC as its one rx pipeline, after the
    [Drop] stages of any offloaded {!filter}: a frame that fails a
    filter on its port is dropped before a later stage can answer it.
    Traffic for other ports is untouched by construction; with nothing
    installed the rx path is byte-identical to a stock NIC. *)

val offload_udp_pipeline :
  t -> Types.qd -> Dk_device.Prog.pipeline -> (unit, Types.error) result
(** Install (or replace) the pipeline for this socket's port.
    [Error `Not_supported] when the descriptor is not a bound UDP queue
    on a programmable NIC — callers fall back to evaluating the same
    stages on the CPU at {!pipeline_cpu_ns} per element. *)

val get_pipeline : max_value:int -> Dk_device.Prog.pipeline
(** The payload-level kv GET pipeline {!offload_udp_get} installs:
    one stage guarding on a leading ['G'] byte, responding from the
    table keyed by the rest of the datagram with hit prefix ["+"].
    Exposed so the CPU fallback (and tests) can evaluate the very same
    stages through {!Dk_device.Prog.eval_pipeline}. *)

val offload_udp_get :
  t ->
  Types.qd ->
  ?policy:Dk_device.Table.policy ->
  ?obs_prefix:string ->
  ?capacity:int ->
  ?max_value:int ->
  unit ->
  (unit, Types.error) result
(** Offload the kv GET hot path: enable the device-resident table
    (defaults: LRU, 4096 entries, 4096-byte values) and install the
    GET pipeline — datagrams starting with ['G'] are looked up by key
    (the rest of the payload) and hits are answered from the device as
    ["+" ^ value], byte-identical to the host's reply under the UDP
    codec; misses and non-GETs pass to the host. *)

val offload_insert : t -> string -> string -> (unit, [ `Rejected ]) result
(** Populate the device table over the host→device control queue; the
    write has completed on the device when this returns. *)

val offload_update : t -> string -> string -> bool
(** Overwrite only if resident ([false] otherwise); an oversized value
    invalidates instead. The kv SET path calls this {e before}
    answering, which is what makes stale device GETs impossible. *)

val offload_invalidate : t -> string -> bool

val offload_stats : t -> Dk_device.Table.stats option
(** [None] until a table is enabled. *)

val pipeline_cpu_ns : t -> Dk_device.Prog.pipeline -> int -> int64
(** CPU-fallback cost of one element through the pipeline: the
    statically-derived {!Dk_device.Prog.pipeline_footprint} priced at
    the filter CPU rate — the same footprint that prices the device
    latency. *)

(** {2 Data path} *)

val push : t -> Types.qd -> Dk_mem.Sga.t -> (Types.qtoken, Types.error) result

val push_batch :
  t -> Types.qd -> Dk_mem.Sga.t list -> (Types.qtoken list, Types.error) result
(** Submit several sgas to one queue, in order, minting one token per
    sga. When the device's tx batch window is open (see
    {!set_batch_window}), the whole batch rings the doorbell once; with
    a zero window it behaves exactly like [push] per element. *)

val pop : t -> Types.qd -> (Types.qtoken, Types.error) result

(** {3 Waiting}

    Every wait runs one poll loop: check readiness; if nothing is
    ready, charge one poll-loop step and run the next event. Without a
    timeout a wait gives up when no event is left (deadlock).

    {b The deadline rule.} A timed wait ([wait_timeout], or [wait_any],
    [wait_all], [wait_next] with [~timeout]) has the deadline [now +
    timeout]. It never runs an event due after the deadline: that
    completion stays for a later wait. When nothing is due by the
    deadline the clock jumps to it. Once the clock reaches or passes
    the deadline, the events due by then still run and readiness is
    checked once more. So a completion due exactly at the deadline is
    returned, and one due later times out with the clock at the
    deadline. *)

val wait : t -> Types.qtoken -> Types.op_result
(** Drive the simulation until the token completes ([Failed `Deadlock]
    if no event is left). A token that was never minted, or is already
    redeemed, fails [`Bad_qtoken] at once. *)

val wait_timeout : t -> Types.qtoken -> timeout:int64 -> Types.op_result
(** [wait] under the deadline rule: [Failed `Timeout] if the deadline
    passes first (the token stays outstanding and can be waited again).
    An unknown token fails [`Bad_qtoken] at once, as in [wait], and the
    clock does not move. *)

val wait_any :
  ?timeout:int64 -> t -> Types.qtoken list -> (Types.qtoken * Types.op_result) option
(** First completion among the tokens ([None] on timeout/deadlock; a
    timeout follows the deadline rule). Exactly one token is redeemed —
    no spurious wakeups (§4.4). *)

val wait_all :
  ?timeout:int64 ->
  t ->
  Types.qtoken list ->
  (Types.qtoken * Types.op_result) list option
(** All completions, in argument order ([None] on timeout/deadlock; a
    timeout follows the deadline rule, and redeems nothing). *)

val try_wait : t -> Types.qtoken -> Types.op_result option
(** Non-blocking poll of one token. *)

(** {2 Persistent wait sets}

    [wait_any] registers and tears down its token list on every call;
    a server with thousands of outstanding operations should instead
    register each token once and drain completions in O(1) per event —
    the readiness path the paper's single-digit-µs budget demands. *)

type waitset

val waitset : t -> waitset
(** A fresh, empty wait set. *)

val waitset_add : t -> waitset -> Types.qtoken -> unit
(** Route the token's completion to the wait set. An
    already-completed token becomes ready immediately. A token is in at
    most one wait set (latest registration wins). *)

val wait_next :
  ?timeout:int64 -> t -> waitset -> (Types.qtoken * Types.op_result) option
(** Next completion from the wait set, driving the simulation while it
    is empty ([None] on timeout/deadlock; a timeout follows the deadline
    rule). Each completion is delivered exactly once; completion order,
    not registration order. *)

val watch : t -> Types.qtoken -> (Types.op_result -> unit) -> unit
(** Scheduler integration (§4.4): run the callback when the token
    completes (immediately if it already did), redeeming it. Used by
    [Dk_sched.Fiber] to suspend lightweight threads on qtokens; a
    watched token must not also be passed to [wait_*]. *)

val set_batch_window : t -> int64 -> unit
(** Tx doorbell coalescing window for every attached device (NIC, RDMA
    NIC, block SQ). [0] — the default, from [Cost.tx_batch_window] —
    rings the doorbell per operation, bit-identically to the unbatched
    path; [w > 0] lets submissions landing within [w] ns share one
    ring. *)

val blocking_push : t -> Types.qd -> Dk_mem.Sga.t -> Types.op_result
(** push + wait (Figure 3 line 8). *)

val blocking_pop : t -> Types.qd -> Types.op_result
(** pop + wait (Figure 3 line 10). *)
