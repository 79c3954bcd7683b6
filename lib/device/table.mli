(** Bounded device-resident key/value table (NIC SRAM model) backing
    the {!Prog.Respond} pipeline action.

    Capacity and value-size caps are fixed at creation. Population is
    the host's job; an insert past capacity evicts the
    least-recently-used entry (deterministic logical-tick LRU).

    Host code must not touch a table directly: reads and writes reach
    it only from [lib/device] (the NIC rx pipeline and its control
    queue, {!Nic.ctrl_insert} etc.) and the sanctioned kv control path
    — enforced by the dk-lint [offload-site] rule.

    Obs counters ([<prefix>device.nic.offload.hits/misses/insertions/
    evictions/invalidations/bytes]) are created per instance at
    {!create}, so runs that never enable offload register nothing. *)

type t

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;       (** new keys admitted *)
  updates : int;          (** existing keys overwritten in place *)
  evictions : int;        (** LRU victims *)
  invalidations : int;    (** explicit removals (incl. oversized updates) *)
  rejected : int;         (** writes refused: value too large *)
}

val create :
  ?obs_prefix:string ->
  capacity:int ->
  max_value:int ->
  unit ->
  t
(** Default: empty prefix (shards pass ["shard<i>."] so the
    aggregator folds a [shards.agg.*] view). Raises [Invalid_argument]
    on non-positive caps. *)

val capacity : t -> int
val length : t -> int
val mem : t -> string -> bool

val lookup : t -> string -> string option
(** Device-side read (the pipeline's [lookup]); hits refresh LRU
    recency and count into [hits]/[bytes]. *)

val insert : t -> string -> string -> (unit, [ `Rejected ]) result
(** Admit or overwrite. Oversized values are rejected; at capacity,
    the least-recently-used entry is evicted. *)

val update : t -> string -> string -> bool
(** Overwrite only if present ([false] otherwise — the key was never
    resident, nothing to go stale). An oversized update {e removes} the
    entry instead of leaving the old value resident. *)

val invalidate : t -> string -> bool
(** Remove; [true] if the key was resident. *)

val clear : t -> unit

val stats : t -> stats
