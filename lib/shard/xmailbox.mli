(** Bounded SPSC cross-shard mailbox over the virtual clock — the only
    sanctioned channel between shards in the multi-shard datapath.

    Sends are non-blocking: [try_send] returns [false] when the ring is
    full (backpressure), and otherwise schedules delivery on the
    {e destination} engine at [max(dst.now, src.now + hop_ns)], so a
    message never lands in the destination's past. Delivery order is
    strictly FIFO per mailbox. Instrumented under the sender's
    namespace ([shard<src>.core.mailbox.{sent,backpressure,inflight}])
    and the receiver's ([shard<dst>.core.mailbox.delivered]). *)

type 'a t

val create :
  src:int ->
  dst:int ->
  src_engine:Dk_sim.Engine.t ->
  dst_engine:Dk_sim.Engine.t ->
  ?capacity:int ->
  unit ->
  'a t
(** Default capacity 4096 messages; every hop takes 500 ns (a
    cross-core cacheline handoff plus wakeup, not a NIC round trip).
    Raises [Invalid_argument] if [src = dst] or the capacity is not
    positive. *)

val try_send : 'a t -> 'a -> bool
(** [false] when the ring is full: the message is NOT enqueued and the
    sender must retry later or shed load. *)

val set_on_recv : 'a t -> ('a -> unit) -> unit
(** Attach the consumer. Messages delivered before a consumer was
    attached are replayed immediately, in order. *)

val src : 'a t -> int
val dst : 'a t -> int
val capacity : 'a t -> int

val in_flight : 'a t -> int
(** Messages sent but not yet delivered. *)
