(** Queue-token table.

    Every non-blocking push/pop mints a fresh token; the queue
    implementation completes it exactly once; the application redeems
    it with a [wait_*] call, which removes it. Because each token is
    unique to a single queue operation, a completion wakes exactly the
    operation's waiter — the contrast §4.4 draws with epoll's wake-all
    file-descriptor readiness.

    The exactly-once contract is enforced: completing a completed token
    or redeeming a watched one raises [Invalid_argument] — or, with
    audit mode on ([~audit:true] or [DK_SANITIZE=1]), is recorded and
    reported through {!Dk_mem.Dk_check} so a whole run can be audited
    with {!audit}. *)

type t

type waitset
(** Readiness FIFO for one waiter. Tokens {!register}ed into a wait set
    are enqueued on it when they complete, so the waiter dequeues
    readiness in O(1) per completion ({!take_ready}) instead of
    rescanning its token list. A token belongs to at most one wait set
    (latest registration wins), preserving the exactly-one-wakeup
    contract. *)

type audit_report = {
  dangling : Types.qtoken list;
      (** minted, never completed nor redeemed — lost wakeups *)
  double_completes : int;
  redeems_after_watch : int;
}

val create : ?audit:bool -> ?now:(unit -> int64) -> unit -> t
(** [audit] defaults to {!Dk_mem.Dk_check.enabled_from_env}. [now], when
    given, timestamps completions in the {!Dk_obs.Flight} recorder; it is
    only ever read, never consumed against, so instrumentation cannot
    perturb virtual time. *)

val fresh : t -> Types.qtoken
(** Mint a pending token. *)

val complete : t -> Types.qtoken -> Types.op_result -> unit
(** Deliver the result. @raise Invalid_argument if the token is unknown
    or already completed (queue implementations must complete exactly
    once); in audit mode a double complete is counted and reported via
    {!Dk_mem.Dk_check.report} instead. *)

val status : t -> Types.qtoken -> [ `Pending | `Done | `Unknown ]

val redeem : t -> Types.qtoken -> Types.op_result option
(** Take the result and forget the token.
    @raise Invalid_argument if the token is watched: a watched token's
    completion goes to its callback, so waiting on it too would deliver
    the same completion twice. In audit mode this is counted/reported
    and [None] is returned under {!Dk_mem.Dk_check.capture}. *)

val watch : t -> Types.qtoken -> (Types.op_result -> unit) -> unit
(** Internal plumbing for composed queues: run the callback when the
    token completes (immediately if it already has), auto-redeeming it.
    A watched token must not also be waited on — see {!redeem}. *)

val outstanding : t -> int
(** Pending (unredeemed, uncompleted) tokens. *)

val waitset : unit -> waitset
(** A fresh, empty wait set. *)

val register : t -> waitset -> Types.qtoken -> unit
(** Route [tok]'s completion to the wait set's ready FIFO. An
    already-completed token is enqueued immediately; a watched or
    unknown token is ignored (it can never become ready for a waiter,
    exactly as under the scanning implementation). Registering a token
    that is already in a wait set moves it — latest registration
    wins. *)

val unregister : t -> waitset -> Types.qtoken -> unit
(** Detach [tok] from this wait set (back to plain pending). No-op if
    the token is not currently registered with [ws] — in particular a
    completed-but-unredeemed token stays redeemable. *)

val take_ready : t -> waitset -> Types.qtoken option
(** Dequeue the next ready (completed, still unredeemed) token.
    Entries whose token was redeemed since being enqueued are skipped:
    a completion produces at most one wakeup. *)

val audit : t -> audit_report
(** Snapshot of the exactly-once bookkeeping: tokens still dangling
    (pending or watched-but-never-completed, sorted), plus the
    double-complete and redeem-after-watch counts recorded so far
    (audit mode only; both are [0] otherwise, because the violations
    raised instead). *)

val report_dangling : ?context:string -> t -> int
(** Report every dangling token through {!Dk_mem.Dk_check.report}
    ([Token_dangling]) and return how many there were. Call when a
    queue or the whole libOS drains: every in-flight operation should
    have been completed or failed by then. *)
