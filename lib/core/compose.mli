(** Composed queues: [filter], [map], [sort], [merge] and [qconnect]
    (Figure 3's queue-manipulation calls), working over {e any}
    underlying queue kind.

    Each composed queue keeps one pop outstanding on each parent
    (prefetch) and transforms the elements as they arrive; pushes are
    transformed and forwarded. The CPU cost of evaluating a filter or
    map here is charged per element — this is the "default to using the
    CPU if necessary" fallback of §4.3; the runtime offloads to a
    programmable device instead when it can. *)

val pump :
  tokens:Token.t ->
  parent:Qimpl.t ->
  on_elem:(Dk_mem.Sga.t -> unit) ->
  on_done:(Types.error -> unit) ->
  unit
(** The one loop inside the libOS that reads a queue on its own: keep
    exactly one pop outstanding on [parent], hand each popped element
    to [on_elem] and then re-pop. When the parent fails (closed,
    aborted), call [on_done] once with the error and stop. Every
    composed queue here reads its parents through it, and so does
    {!Demi.steer}. *)

val filter :
  tokens:Token.t ->
  engine:Dk_sim.Engine.t ->
  parent:Qimpl.t ->
  pred:(Dk_mem.Sga.t -> bool) ->
  elem_cost:(Dk_mem.Sga.t -> int64) ->
  Qimpl.t
(** Pops yield only elements satisfying [pred]; pushes forward to the
    parent only when [pred] holds. [elem_cost] is the CPU charge per
    evaluated element. *)

val map :
  tokens:Token.t ->
  engine:Dk_sim.Engine.t ->
  parent:Qimpl.t ->
  fn:(Dk_mem.Sga.t -> Dk_mem.Sga.t) ->
  elem_cost:(Dk_mem.Sga.t -> int64) ->
  Qimpl.t
(** Pops yield [fn elem]; pushes forward [fn elem] to the parent. *)

val sort :
  tokens:Token.t ->
  engine:Dk_sim.Engine.t ->
  parent:Qimpl.t ->
  higher_priority:(Dk_mem.Sga.t -> Dk_mem.Sga.t -> bool) ->
  Qimpl.t
(** Pops yield the highest-priority buffered element (§4.3: "a pop from
    the sorted queue returns the element with the highest priority").
    Elements are drained eagerly from the parent into the priority
    structure; ties pop in arrival order. Pushes forward unchanged. *)

val merge :
  tokens:Token.t -> engine:Dk_sim.Engine.t -> a:Qimpl.t -> b:Qimpl.t -> Qimpl.t
(** A pop returns the next element from either parent; a push goes to
    both (the sga's segments are shared, not copied). *)

val qconnect :
  tokens:Token.t -> src:Qimpl.t -> dst:Qimpl.t -> unit
(** Splice: every element popped from [src] is pushed to [dst],
    indefinitely. *)
