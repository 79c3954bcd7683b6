(** Bounded device-resident key/value table (NIC SRAM model) backing
    the {!Prog.Respond} pipeline action.

    Capacity and value-size caps are fixed at creation. [Lru] lets the
    device admit and evict on its own (deterministic logical-tick LRU);
    [Host_managed] never admits or evicts device-side — population is
    entirely the host's job, and inserts past capacity are rejected.

    Host code must not touch a table directly: reads and writes reach
    it only from [lib/device] (the NIC rx pipeline and its control
    queue, {!Nic.ctrl_insert} etc.) and the sanctioned kv control path
    — enforced by the dk-lint [offload-site] rule.

    Obs counters ([<prefix>device.nic.offload.hits/misses/insertions/
    evictions/invalidations/bytes]) are created per instance at
    {!create}, so runs that never enable offload register nothing. *)

type t

type policy = Lru | Host_managed

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;       (** new keys admitted *)
  updates : int;          (** existing keys overwritten in place *)
  evictions : int;        (** LRU victims *)
  invalidations : int;    (** explicit removals (incl. oversized updates) *)
  rejected : int;         (** writes refused: value too large, or full
                              under [Host_managed] *)
}

val create :
  ?policy:policy ->
  ?obs_prefix:string ->
  capacity:int ->
  max_value:int ->
  unit ->
  t
(** Defaults: [Lru], empty prefix (shards pass ["shard<i>."] so the
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
    [Lru] evicts the least-recently-used entry, [Host_managed]
    rejects. *)

val update : t -> string -> string -> bool
(** Overwrite only if present ([false] otherwise — the key was never
    resident, nothing to go stale). An oversized update {e removes} the
    entry instead of leaving the old value resident. *)

val invalidate : t -> string -> bool
(** Remove; [true] if the key was resident. *)

val clear : t -> unit

val stats : t -> stats
