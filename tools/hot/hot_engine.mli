(** dk-hot: interprocedural hot-path cost analysis.

    The two-pass propagation machinery (per-function effect summaries,
    call-graph BFS, alias resolution) is {!Interproc}, shared with
    dk-shard; this module supplies the cost-specific rules and the
    hot-root inventory.

    Rule families, each reported at the hot root's definition with the
    offending call chain:
    - [hot-alloc]: no per-op heap allocation (closure capture,
      tuple/list/record construction, [Bytes]/[String]/[Array]
      builders, format strings) may be reachable from a hot root,
      unless the allocating function is classified
      [[@@hot.alloc "why"]] (pool internals, deliberate sim
      bookkeeping, API-mandated handles).
    - [hot-complexity]: no iteration or sorting over unbounded
      collections ([Hashtbl] walks, [Det] sorted iteration, [List]
      traversal) may run per operation.
    - [hot-poly]: no polymorphic compare/hash ([Hashtbl.hash], bare
      [compare], tuple-keyed tables, structural [=] on constructed
      values) may run per operation.
    - [hot-annotation]: an [[@@hot.alloc]] with no why, or one that
      exempts nothing, fails — annotations must stay honest.

    Hot roots ({!Interproc.summary} root kinds): the NIC/RDMA receive
    surface (["rx-delivery"]), the transmit surface (["tx-submit"]),
    the per-op Demi API (["demi-api"]), the doorbell path
    (["doorbell-flush"]), the engine step loop (["engine-step"]), and
    anything marked [[@@hot]] (["annotated"]). *)

type finding = Tool_common.finding

type effect_site = Interproc.effect_site = { via : string; at : int }

type summary = Interproc.summary = {
  key : string;
  s_path : string;
  def_line : int;
  attrs : Parsetree.attributes;
  mutable intrinsic : (string * effect_site) list;
  mutable calls : string list;
  mutable unknown : bool;
  mutable root : string option;
}
(** Re-exported from {!Interproc}; effect kinds here are
    ["alloc:<what>"], ["scan:<what>"] and ["poly:<what>"], root kinds
    ["rx-delivery"], ["tx-submit"], ["demi-api"], ["doorbell-flush"],
    ["engine-step"], ["annotated"]. *)

type program

val analyze_files : Tool_common.source list -> program
(** The parsed sources, analyzed together as one program — edges may
    cross files. The [[@@hot.alloc]] audit and exemption run here:
    annotated functions have their alloc-family effects stripped
    (after recording any [hot-annotation] findings). *)

val findings : program -> finding list
(** All four rule families plus [parse-error], sorted and deduplicated
    by (path, line, rule). At most one finding per family per root:
    the budget is the root's, so the shortest witness chain is the
    diagnostic. *)

val summary_of : program -> string -> summary option
(** Look up one function's summary by key (for tests and debugging). *)

type root_info = {
  r_key : string;
  r_kind : string;
  r_path : string;
  r_line : int;
  r_reached : int;  (** analyzed functions reachable from this root *)
}

val inventory : program -> root_info list
(** Every hot root, sorted by key, with the size of its reachable
    call-graph footprint. *)

val inventory_json : root_info list -> string
(** A JSON array, one object per root. *)

val inventory_table : root_info list -> string
