(** Receive-side scaling: NIC-level flow steering for the multi-shard
    datapath.

    A 5-tuple is hashed (deterministic FNV-1a, the simulation's
    stand-in for hardware Toeplitz) into a configurable indirection
    table whose entries name per-core rx queues — shard ids in
    [Dk_shard_rt]. The table defaults to a round-robin spread and can
    be repointed entry by entry, which is how real deployments rebalance
    flows without rehashing.

    Steering is a pure function of the tuple: no engine, no RNG, no
    CPU cost — the device classifies, the host never sees frames for
    other cores' flows (§4.3). *)

type t

val create : queues:int -> unit -> t
(** [create ~queues ()] builds a 128-entry indirection table spreading
    hash buckets round-robin over [queues] rx queues. Raises
    [Invalid_argument] on a non-positive queue count. *)

val queues : t -> int
val table_size : t -> int

val entry : t -> int -> int

val rebalance : t -> int array -> unit
(** [rebalance t weights] repoints the whole indirection table from the
    observed per-bucket flow weight ([weights.(i)] flows hash to bucket
    [i]) so per-queue load equalises — the software counterpart of
    [ethtool -X]. Deterministic greedy longest-processing-time
    placement. Raises [Invalid_argument] unless there is exactly one
    weight per table entry. *)

val hash_flow :
  src_ip:int -> src_port:int -> dst_ip:int -> dst_port:int -> proto:int -> int
(** Deterministic non-negative hash of the 5-tuple. *)

val select :
  t ->
  src_ip:int ->
  src_port:int ->
  dst_ip:int ->
  dst_port:int ->
  proto:int ->
  int
(** The rx queue (shard) owning the flow: [hash_flow] reduced through
    the indirection table. *)
