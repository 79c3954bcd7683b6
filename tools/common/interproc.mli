(** The shared interprocedural propagation engine behind dk-shard and
    dk-hot.

    Pass 1 walks every file's parse tree ({!Tool_common.parse}; no
    typechecking) and computes a per-function {!summary}: intrinsic
    effects (tool-defined string kinds), candidate callees, the
    unknown-call taint, and an optional root kind. Pass 2 ({!reach})
    is a BFS over the approximated call graph from a root, returning
    the first witness site per effect kind with the full call chain.

    Tool-specific content — name-based intrinsics, shape-based
    expression effects, root discovery, dk-shard's module-state
    inventory callbacks — arrives through the {!hooks} record; start
    from {!default_hooks} and override what the tool needs. *)

open Parsetree

type effect_site = { via : string; at : int }
(** What was called or constructed ([via], display form) and on which
    line. *)

type summary = {
  key : string;
  s_path : string;
  def_line : int;
  attrs : attributes;
  mutable intrinsic : (string * effect_site) list;
  mutable calls : string list;
  mutable unknown : bool;
  mutable root : string option;
}
(** One function's effect summary. [key] is ["Module.fn"] for toplevel
    functions, ["Module.fn.local"] for let-bound local functions and
    ["Module.fn.<cb@N>"] for a callback closure registered on line [N].
    [intrinsic] keeps the first site per effect kind. [unknown] is set
    when the body calls through a value the analysis cannot resolve (a
    parameter, a stored closure, a record field); it is tracked for
    honesty but deliberately not reported by either tool — flagging
    every [t.on_event ()] callback would drown the signal. *)

type program = {
  summaries : (string, summary) Hashtbl.t;
  mutable parse_failures : Tool_common.finding list;
}

type hooks = {
  tool : string;  (** for the parse-error diagnostic *)
  intrinsic_of :
    cur_module:string -> call:bool -> string * string -> (string * string) option;
      (** Name-based effects: resolved [(module, fn)] — [("", x)] for a
          bare unresolved ident — to [(kind, via)]. [call] is true in
          call position. *)
  expr_effects :
    cur_module:string ->
    resolve:(string -> string) ->
    toplevel:(string -> bool) ->
    expression ->
    (string * string * int) list;
      (** Shape-based effects of one expression node: [(kind, via,
          line)] triples. Called once per walked node, except the
          fun-layer spine of a named binding (so a tool that charges
          lambdas as closure allocations never sees the function's own
          definition layers). *)
  registration_of : string * string -> (int * string) option;
      (** Callback-registration surface: [(module, fn)] to (index of
          the callback among positional args, root kind it becomes). *)
  binding_root :
    cur_module:string -> name:string -> attributes -> string option;
      (** Root kind of a toplevel function binding, if any. *)
  merge_root : existing:string -> string -> string;
      (** A function already rooted as [existing] is also registered as
          the second kind; pick the one to keep. *)
  global_rhs : expression -> bool;
      (** RHS shapes that make a non-function toplevel binding a
          tracked mutable global (enables local-name mutation
          targeting). *)
  mutator_of : string * string -> bool;
      (** Container operations whose first argument is the mutated
          structure ([Hashtbl.replace], ...); [:=]/[incr]/[decr] are
          engine built-ins. *)
  on_toplevel : cur_module:string -> path:string -> value_binding -> unit;
      (** Every toplevel non-function [Ppat_var] binding — dk-shard's
          state inventory hangs here. *)
  on_mutation :
    key:string ->
    target:string * string ->
    path:string ->
    line:int ->
    how:string ->
    unit;
      (** A mutation of module-level binding [target = (module, name)]
          performed inside summary [key]. *)
}

val default_hooks : tool:string -> hooks
(** All hooks inert: no intrinsics, no roots, no state tracking. *)

val mut_global_kind : string
(** The engine's effect kind for module-state writes (["mut-global"]). *)

val analyze_files : hooks -> Tool_common.source list -> program
(** The parsed sources, analyzed together as one program — edges may
    cross files. A source that did not parse becomes a [parse-error]
    finding in [parse_failures]. *)

type hit = {
  h_kind : string;
  h_sum : summary;
  h_site : effect_site;
  h_chain : string;
}

val reach : program -> summary -> hit list
(** BFS from a root: the first witness per effect kind, in discovery
    order (shortest chains first). [h_chain] is the key chain from the
    root to the witness's summary, [" -> "]-joined. *)

val roots : program -> summary list
(** Summaries with a root kind, sorted by key. *)

val summary_of : program -> string -> summary option

val all_summaries : program -> summary list
(** Every summary, sorted by key (for inventories and tests). *)

(** {2 AST helpers shared by the tool engines} *)

val is_fun : expression -> bool
val module_of_path : string -> string
val attr_string : attribute -> string
val find_attr : string -> attributes -> attribute option
val has_attr : string -> attributes -> bool
val is_operator : string -> bool
