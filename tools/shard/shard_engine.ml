(* dk-shard: interprocedural shard-safety and determinism analysis
   over the whole lib/ source set.

   The two-pass machinery — per-function effect summaries, the
   approximated call graph with alias/closure resolution, callback
   carving, and the BFS that reports violations at entry points with
   the offending call chain — lives in {!Interproc} and is shared with
   dk-hot. This module supplies the shard-specific content:

   - the intrinsic effect sources (wall-clock reads, non-simulated
     randomness, hash-order-dependent iteration, blocking on the
     engine) and the registration surface that makes a callback a root
     ([Engine.at]/[Engine.after]/[Engine.timer]/[Demi.watch]/
     [Token.watch] = Poll, [Fiber.spawn] = Fiber, the [Demi] API and
     [[@@shard.entry]] = Api);
   - the module-level mutable-state inventory, classified by
     [[@@shard.per_shard]] / [[@@shard.immutable]] / [[@@shard.tooling]]
     attributes (obs instrument handles are recognized automatically),
     with mutations of immutable-classified state reported at the write.

   Rule families:
     shard-state    unclassified module-level mutable state, and any
                    mutation of [[@@shard.immutable]]-classified state
     det-source     Clock / Random / HashOrder reachable from any root
     poll-blocking  Blocking reachable from a Poll or Fiber root *)

open Parsetree

type finding = Tool_common.finding

type effect_site = Interproc.effect_site = { via : string; at : int }

type summary = Interproc.summary = {
  key : string;
  s_path : string;
  def_line : int;
  attrs : attributes;
  mutable intrinsic : (string * effect_site) list;
  mutable calls : string list;
  mutable unknown : bool;
  mutable root : string option;
}

type classification =
  | Per_shard of string
  | Immutable of string
  | Obs_handle
  | Tooling of string
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

type mutation = {
  m_module : string; (* target's module *)
  m_name : string;
  m_path : string; (* where the write happens *)
  m_line : int;
  m_how : string; (* ":=", "Hashtbl.replace", "field write", ... *)
}

type program = {
  ip : Interproc.program;
  globals : global list;
  mutations : mutation list;
}

(* ---------------- effect and root kinds (string-keyed) ---------------- *)

let k_clock = "clock"
let k_random = "random"
let k_hash_order = "hash-order"
let k_blocking = "blocking"
let r_api = "api"
let r_poll = "poll"
let r_fiber = "fiber"

let kind_noun = function
  | "clock" -> "wall-clock read"
  | "random" -> "non-simulated randomness"
  | "hash-order" -> "hash-order-dependent iteration"
  | "blocking" -> "blocking call"
  | k -> k

let root_noun = function
  | "api" -> "API entry"
  | "poll" -> "poll callback"
  | "fiber" -> "fiber body"
  | r -> r

(* ---------------- attributes ---------------- *)

let classification_of_attrs attrs =
  List.find_map
    (fun (a : attribute) ->
      match a.attr_name.txt with
      | "shard.per_shard" -> Some (Per_shard (Interproc.attr_string a))
      | "shard.immutable" -> Some (Immutable (Interproc.attr_string a))
      | "shard.tooling" -> Some (Tooling (Interproc.attr_string a))
      | _ -> None)
    attrs

(* ---------------- intrinsic effect sources ---------------- *)

(* [Det] (lib/util/det.ml) is the sanctioned sorted-iteration wrapper:
   its internal Hashtbl.fold is what makes everyone else's iteration
   deterministic, so it is exempt from the HashOrder intrinsic.
   [Itbl] (lib/util/itbl.ml) is [Hashtbl] over int keys: its walks
   are hash-ordered too, and its own [fold_sorted] is exempt the same
   way. *)
let intrinsic_of ~cur_module ~call:_ (m, f) : (string * string) option =
  match (m, f) with
  | "Unix", ("gettimeofday" | "time" | "localtime" | "gmtime" | "times") ->
      Some (k_clock, "Unix." ^ f)
  | "Sys", "time" -> Some (k_clock, "Sys.time")
  | "Random", _ -> Some (k_random, "Random." ^ f)
  | ( ("Hashtbl" | "Itbl"),
      ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") )
    when cur_module <> "Det" && cur_module <> "Itbl" ->
      Some (k_hash_order, m ^ "." ^ f)
  | "Unix", ("sleep" | "sleepf" | "select") -> Some (k_blocking, "Unix." ^ f)
  | "Thread", "delay" -> Some (k_blocking, "Thread.delay")
  | "Engine", ("step" | "run_until" | "run_for" | "run")
    when cur_module <> "Engine" ->
      Some (k_blocking, "Engine." ^ f)
  | ( "Demi",
      ( "wait" | "wait_timeout" | "wait_any" | "wait_all" | "wait_next"
      | "blocking_push" | "blocking_pop" ) )
    when cur_module <> "Demi" ->
      Some (k_blocking, "Demi." ^ f)
  | _ -> None

(* Callback-registration surface: (module, fn), index of the callback
   among positional args, and what kind of root the callback becomes. *)
let registration_of (m, f) : (int * string) option =
  match (m, f) with
  | "Engine", ("at" | "after") -> Some (2, r_poll)
  | "Engine", "timer" -> Some (1, r_poll)
  | ("Demi" | "Token"), "watch" -> Some (2, r_poll)
  | "Fiber", "spawn" -> Some (1, r_fiber)
  | _ -> None

(* Container-mutating operations: (module, fn) whose first argument is
   the mutated structure. *)
let mutator_of (m, f) : bool =
  match (m, f) with
  | ( ("Hashtbl" | "Itbl"),
      ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
    ) ->
      true
  | "Queue", ("add" | "push" | "pop" | "take" | "clear" | "transfer") -> true
  | "Buffer", ("clear" | "reset") -> true
  | "Buffer", f when String.length f >= 4 && String.sub f 0 4 = "add_" -> true
  | "Atomic", ("set" | "incr" | "decr" | "exchange" | "compare_and_set") ->
      true
  | "Array", ("set" | "fill" | "blit") -> true
  | "Bytes", ("set" | "fill" | "blit") -> true
  | _ -> false

(* ---------------- global (module-level state) detection ---------------- *)

let global_kind_of_rhs (e : expression) : [ `Obs | `Kind of g_kind ] option =
  match (Tool_common.strip e).pexp_desc with
  | Pexp_apply (fn, _) -> (
      match (Tool_common.strip fn).pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Tool_common.last_two txt with
          | Some ("", "ref") -> Some (`Kind GRef)
          | Some ("Metrics", ("counter" | "gauge" | "hist")) -> Some `Obs
          | Some (("Hashtbl" | "Itbl"), "create") -> Some (`Kind GHashtbl)
          | Some (("Queue" | "Buffer" | "Atomic"), ("create" | "make"))
          | Some ("Array", ("make" | "init" | "of_list" | "copy"))
          | Some ("Bytes", ("create" | "make")) ->
              Some (`Kind GContainer)
          | Some (_, ("create" | "make")) -> Some (`Kind GConstructed)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ---------------- the hooks wiring ---------------- *)

let hooks_for ~globals ~mutations : Interproc.hooks =
  {
    (Interproc.default_hooks ~tool:"dk-shard") with
    intrinsic_of;
    registration_of;
    binding_root =
      (fun ~cur_module ~name:_ attrs ->
        if cur_module = "Demi" || Interproc.has_attr "shard.entry" attrs then
          Some r_api
        else None);
    merge_root =
      (fun ~existing kind -> if existing = r_api then kind else existing);
    global_rhs = (fun e -> global_kind_of_rhs e <> None);
    mutator_of;
    on_toplevel =
      (fun ~cur_module ~path vb ->
        match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
        | Ppat_var { txt = name; _ } -> (
            let line = Tool_common.line_of vb.pvb_loc in
            match global_kind_of_rhs vb.pvb_expr with
            | Some `Obs ->
                globals :=
                  {
                    g_module = cur_module;
                    g_name = name;
                    g_path = path;
                    g_line = line;
                    g_kind = GConstructed;
                    g_class = Obs_handle;
                  }
                  :: !globals
            | Some (`Kind k) ->
                let cls =
                  match classification_of_attrs vb.pvb_attributes with
                  | Some c -> c
                  | None -> Unclassified
                in
                globals :=
                  {
                    g_module = cur_module;
                    g_name = name;
                    g_path = path;
                    g_line = line;
                    g_kind = k;
                    g_class = cls;
                  }
                  :: !globals
            | None -> ())
        | _ -> ());
    on_mutation =
      (fun ~key:_ ~target:(m, name) ~path ~line ~how ->
        mutations :=
          { m_module = m; m_name = name; m_path = path; m_line = line;
            m_how = how }
          :: !mutations);
  }

(* ---------------- pass 2: findings ---------------- *)

let propagate_root prog (root : summary) : finding list =
  let blocking_wanted =
    match root.root with
    | Some k -> k = r_poll || k = r_fiber
    | None -> false
  in
  let hits = Interproc.reach prog.ip root in
  let det_hit =
    List.find_opt
      (fun (h : Interproc.hit) ->
        List.mem h.h_kind [ k_clock; k_random; k_hash_order ])
      hits
  in
  let blk_hit =
    if blocking_wanted then
      List.find_opt (fun (h : Interproc.hit) -> h.h_kind = k_blocking) hits
    else None
  in
  let mk rule (h : Interproc.hit) =
    {
      Tool_common.path = root.s_path;
      line = root.def_line;
      rule;
      message =
        Printf.sprintf "%s reachable from %s %s: %s -> %s (%s:%d)%s"
          (kind_noun h.h_kind)
          (root_noun (Option.value root.root ~default:r_api))
          root.key h.h_chain h.h_site.via h.h_sum.s_path h.h_site.at
          (if h.h_kind = k_blocking then
             " — an engine poll iteration must not block outside the \
              virtual clock"
           else
             " — shard replay requires identical output for identical \
              inputs");
    }
  in
  List.filter_map
    (fun x -> x)
    [ Option.map (mk "det-source") det_hit;
      Option.map (mk "poll-blocking") blk_hit ]

let g_kind_name = function
  | GRef -> "ref"
  | GHashtbl -> "hashtbl"
  | GContainer -> "container"
  | GConstructed -> "constructed"

let class_name = function
  | Per_shard _ -> "per-shard"
  | Immutable _ -> "shared-immutable"
  | Obs_handle -> "obs-handle"
  | Tooling _ -> "tooling"
  | Unclassified -> "UNCLASSIFIED"

let class_reason = function
  | Per_shard r | Immutable r | Tooling r -> r
  | Obs_handle | Unclassified -> ""

let state_findings prog : finding list =
  let decl_findings =
    List.filter_map
      (fun g ->
        match g.g_class with
        | Unclassified ->
            Some
              {
                Tool_common.path = g.g_path;
                line = g.g_line;
                rule = "shard-state";
                message =
                  Printf.sprintf
                    "module-level mutable state %s.%s (%s): unclassified \
                     shared state breaks shard isolation — move it behind a \
                     constructor-passed record, or mark it [@@shard.per_shard \
                     \"why\"] / [@@shard.immutable \"why\"], or allowlist \
                     with a justifying comment"
                    g.g_module g.g_name (g_kind_name g.g_kind);
              }
        | _ -> None)
      prog.globals
  in
  let immutable g = match g.g_class with Immutable _ -> true | _ -> false in
  let mut_findings =
    List.filter_map
      (fun m ->
        match
          List.find_opt
            (fun g -> g.g_module = m.m_module && g.g_name = m.m_name)
            prog.globals
        with
        | Some g when immutable g ->
            Some
              {
                Tool_common.path = m.m_path;
                line = m.m_line;
                rule = "shard-state";
                message =
                  Printf.sprintf
                    "mutation (%s) of %s.%s, which is classified \
                     [@@shard.immutable]: shared-immutable state must never \
                     be written after module initialization (%s:%d)"
                    m.m_how m.m_module m.m_name g.g_path g.g_line;
              }
        | _ -> None)
      prog.mutations
  in
  decl_findings @ mut_findings

(* ---------------- public interface ---------------- *)

let analyze_files (files : Tool_common.source list) : program =
  let globals = ref [] and mutations = ref [] in
  let hooks = hooks_for ~globals ~mutations in
  let ip = Interproc.analyze_files hooks files in
  { ip; globals = !globals; mutations = !mutations }

let findings (prog : program) : finding list =
  let roots = Interproc.roots prog.ip in
  let propagated = List.concat_map (propagate_root prog) roots in
  prog.ip.parse_failures @ state_findings prog @ propagated
  |> List.sort_uniq Tool_common.compare_finding

let summary_of (prog : program) key = Interproc.summary_of prog.ip key

let inventory (prog : program) : global list =
  List.sort
    (fun a b ->
      match String.compare a.g_module b.g_module with
      | 0 -> String.compare a.g_name b.g_name
      | c -> c)
    prog.globals

let inventory_json (globals : global list) : string =
  let esc = Tool_common.json_escape in
  let entry g =
    Printf.sprintf
      "    {\"module\": \"%s\", \"name\": \"%s\", \"path\": \"%s\", \
       \"line\": %d, \"kind\": \"%s\", \"class\": \"%s\", \"reason\": \
       \"%s\"}"
      (esc g.g_module) (esc g.g_name) (esc g.g_path) g.g_line
      (g_kind_name g.g_kind)
      (esc (class_name g.g_class))
      (esc (class_reason g.g_class))
  in
  Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.map entry globals))

let inventory_table (globals : global list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %-12s %-17s %s\n" "binding" "kind" "class"
       "where / why");
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %-12s %-17s %s:%d%s\n"
           (g.g_module ^ "." ^ g.g_name)
           (g_kind_name g.g_kind)
           (class_name g.g_class)
           g.g_path g.g_line
           (match class_reason g.g_class with "" -> "" | r -> "  — " ^ r)))
    globals;
  Buffer.contents b
