(** dk-shard: interprocedural shard-safety and determinism analysis.

    The two-pass propagation machinery (per-function effect summaries,
    call-graph BFS, callback carving, alias resolution) is
    {!Interproc}, shared with dk-hot; this module supplies the
    shard-specific rules and the shared-state inventory.

    Rule families:
    - [shard-state]: module-level mutable bindings must be classified
      [[@@shard.per_shard "why"]] or [[@@shard.immutable "why"]] (obs
      instrument handles are recognized automatically), and
      immutable-classified state must never be mutated.
    - [det-source]: no wall-clock read, non-{!Dk_sim.Rng} randomness,
      or hash-order-dependent iteration may be reachable from a
      datapath entry point.
    - [poll-blocking]: nothing reachable from an engine poll callback
      or fiber body may block outside the virtual clock.

    Entry points (roots, as {!Interproc.summary} root kinds): the
    toplevel functions of module [Demi] and anything marked
    [[@@shard.entry]] (["api"]); callbacks registered via
    [Engine.at]/[Engine.after]/[Engine.timer]/[Demi.watch]/[Token.watch]
    (["poll"]); and [Fiber.spawn] bodies (["fiber"]). [det-source]
    applies to all roots, [poll-blocking] to poll and fiber roots. *)

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
(** Re-exported from {!Interproc}; effect kinds here are ["clock"],
    ["random"], ["hash-order"], ["blocking"], ["mut-global"], root
    kinds ["api"], ["poll"], ["fiber"]. *)

type classification =
  | Per_shard of string  (** mutable by design, one instance per shard *)
  | Immutable of string  (** written only during module initialization *)
  | Obs_handle  (** Metrics counter/gauge/hist registration *)
  | Tooling of string
      (** sanitizer/debug capture channel — analysis and test plumbing,
          not datapath state; never consulted on the packet path *)
  | Unclassified

type g_kind = GRef | GHashtbl | GContainer | GConstructed

type global = {
  g_module : string;
  g_name : string;
  g_path : string;
  g_line : int;
  g_kind : g_kind;
  g_class : classification;
}

type program

val analyze_files : Tool_common.source list -> program
(** The parsed sources, analyzed together as one program — edges may
    cross files. *)

val findings : program -> finding list
(** All three rule families plus [parse-error], sorted and deduplicated
    by (path, line, rule). *)

val summary_of : program -> string -> summary option
(** Look up one function's summary by key (for tests and debugging). *)

val inventory : program -> global list
(** The shared-state inventory: every module-level global found,
    sorted by module then name. *)

val inventory_json : global list -> string
(** A JSON array, one object per global. *)

val inventory_table : global list -> string
