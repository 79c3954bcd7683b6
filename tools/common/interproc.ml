(* The shared interprocedural propagation engine behind dk-shard and
   dk-hot.

   Both tools are the same two-pass analysis over different rule
   content. Pass 1 walks every file's parse tree ({!Tool_common.parse};
   no typechecking) and computes a per-function summary: which intrinsic
   effects the body performs (a tool-defined string kind per effect),
   which functions it may call, and whether it calls through values the
   analysis cannot resolve (the [unknown] taint). Pass 2 is a BFS over
   the approximated call graph from the tool's roots, reporting the
   first witness site per effect kind with the full call chain.

   What is generic lives here: the walker (let-bound local functions as
   child summaries, literal callbacks carved out as synthetic root
   nodes, module-alias resolution, the unknown-call taint), the
   summary/program representation, and the BFS. What is tool-specific
   arrives through a [hooks] record: name-based intrinsics, shape-based
   expression effects, root discovery (by binding or by registration
   site), and the module-level-state callbacks dk-shard's inventory is
   built from.

   Resolution is by the last two path components plus per-file
   [module X = Y] aliases, so [Dk_sim.Engine.at], [Engine.at] and an
   aliased [E.at] all resolve to ["Engine", "at"]. *)

open Parsetree

type effect_site = { via : string; at : int }

type summary = {
  key : string; (* "Module.fn", "Module.fn.local", "Module.fn.<cb@N>" *)
  s_path : string;
  def_line : int;
  attrs : attributes; (* the binding's attributes ([] for callbacks) *)
  mutable intrinsic : (string * effect_site) list; (* first site per kind *)
  mutable calls : string list; (* candidate callee keys *)
  mutable unknown : bool; (* called through something unresolvable *)
  mutable root : string option; (* tool-defined root kind *)
}

type program = {
  summaries : (string, summary) Hashtbl.t;
  mutable parse_failures : Tool_common.finding list;
}

type hooks = {
  tool : string;
  intrinsic_of :
    cur_module:string -> call:bool -> string * string -> (string * string) option;
  expr_effects :
    cur_module:string ->
    resolve:(string -> string) ->
    toplevel:(string -> bool) ->
    expression ->
    (string * string * int) list;
  registration_of : string * string -> (int * string) option;
  binding_root :
    cur_module:string -> name:string -> attributes -> string option;
  merge_root : existing:string -> string -> string;
  global_rhs : expression -> bool;
  mutator_of : string * string -> bool;
  on_toplevel : cur_module:string -> path:string -> value_binding -> unit;
  on_mutation :
    key:string ->
    target:string * string ->
    path:string ->
    line:int ->
    how:string ->
    unit;
}

let default_hooks ~tool =
  {
    tool;
    intrinsic_of = (fun ~cur_module:_ ~call:_ _ -> None);
    expr_effects = (fun ~cur_module:_ ~resolve:_ ~toplevel:_ _ -> []);
    registration_of = (fun _ -> None);
    binding_root = (fun ~cur_module:_ ~name:_ _ -> None);
    merge_root = (fun ~existing _ -> existing);
    global_rhs = (fun _ -> false);
    mutator_of = (fun _ -> false);
    on_toplevel = (fun ~cur_module:_ ~path:_ _ -> ());
    on_mutation = (fun ~key:_ ~target:_ ~path:_ ~line:_ ~how:_ -> ());
  }

(* The engine's own effect kind for module-state writes; dk-shard's
   inventory consumes the [on_mutation] callback, the kind only marks
   the summary. *)
let mut_global_kind = "mut-global"

(* ---------------- small AST helpers ---------------- *)

let is_fun (e : expression) =
  match (Tool_common.strip e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let attr_string (a : attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      s
  | _ -> ""

let find_attr name attrs =
  List.find_opt (fun (a : attribute) -> a.attr_name.txt = name) attrs

let has_attr name attrs = find_attr name attrs <> None

(* Operators ([+], [@@], [|>], ...) appear as bare idents in call
   position in every arithmetic expression; unless a tool claims one as
   an intrinsic they carry none of the effects we track and must not
   taint the summary. *)
let is_operator x =
  x <> ""
  &&
  match x.[0] with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      (* the keyword infix operators are idents with letter names *)
      match x with
      | "lsl" | "lsr" | "asr" | "mod" | "land" | "lor" | "lxor" | "or" -> true
      | _ -> false)
  | _ -> true

(* ---------------- per-file analysis (pass 1) ---------------- *)

type fctx = {
  prog : program;
  hooks : hooks;
  path : string;
  cur_module : string;
  aliases : (string * string) list; (* module alias -> target last comp. *)
  toplevel : (string, unit) Hashtbl.t; (* toplevel value names of file *)
  top_globals : (string, unit) Hashtbl.t; (* toplevel global names *)
  mutable pending_roots : (string * string) list;
}

let resolve_mod fc m =
  match List.assoc_opt m fc.aliases with Some m' -> m' | None -> m

let new_summary ?(attrs = []) fc key line =
  let s =
    {
      key;
      s_path = fc.path;
      def_line = line;
      attrs;
      intrinsic = [];
      calls = [];
      unknown = false;
      root = None;
    }
  in
  Hashtbl.replace fc.prog.summaries key s;
  s

let add_effect (s : summary) kind via line =
  if not (List.mem_assoc kind s.intrinsic) then
    s.intrinsic <- (kind, { via; at = line }) :: s.intrinsic

let add_call (s : summary) callee =
  if not (List.mem callee s.calls) then s.calls <- callee :: s.calls

let record_mutation fc node ~m ~name ~line ~how =
  fc.hooks.on_mutation ~key:node.key ~target:(m, name) ~path:fc.path ~line
    ~how;
  add_effect node mut_global_kind (m ^ "." ^ name) line

(* Resolve an identifier occurrence. [locals] maps locally let-bound
   function names to their summary keys. [call] is true when the ident
   sits in call position, where an unresolvable name taints the
   summary (a parameter or stored closure: we cannot see its body). *)
let note_ident fc (node : summary) locals ~call ~line (txt : Longident.t) =
  match txt with
  | Longident.Lident x -> (
      match List.assoc_opt x locals with
      | Some key -> add_call node key
      | None ->
          if Hashtbl.mem fc.toplevel x then
            add_call node (fc.cur_module ^ "." ^ x)
          else (
            match
              fc.hooks.intrinsic_of ~cur_module:fc.cur_module ~call ("", x)
            with
            | Some (kind, via) -> add_effect node kind via line
            | None -> if call && not (is_operator x) then node.unknown <- true))
  | _ -> (
      match Tool_common.last_two txt with
      | Some (m, f) -> (
          let m = resolve_mod fc m in
          match fc.hooks.intrinsic_of ~cur_module:fc.cur_module ~call (m, f) with
          | Some (kind, via) -> add_effect node kind via line
          | None -> add_call node (m ^ "." ^ f))
      | None -> ())

(* The single target of a mutation-shaped expression, when it is a
   named module-level binding: [Some (module, name)]. *)
let global_target fc locals (e : expression) =
  match (Tool_common.strip e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } ->
      if Hashtbl.mem fc.top_globals x && not (List.mem_assoc x locals) then
        Some (fc.cur_module, x)
      else None
  | Pexp_ident { txt; _ } -> (
      match Tool_common.last_two txt with
      | Some (m, f) when m <> "" -> Some (resolve_mod fc m, f)
      | _ -> None)
  | _ -> None

(* [spine] is true while we are walking the fun-layer spine of a named
   binding: those lambdas define the function itself and are invisible
   to [expr_effects] (a lambda anywhere else is a value the body
   constructs, which dk-hot charges as a closure allocation). *)
let rec walk fc (node : summary) locals ~spine (e : expression) : unit =
  let lambda =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
    | _ -> false
  in
  if not (spine && lambda) then
    List.iter
      (fun (kind, via, line) -> add_effect node kind via line)
      (fc.hooks.expr_effects ~cur_module:fc.cur_module
         ~resolve:(resolve_mod fc)
         ~toplevel:(Hashtbl.mem fc.toplevel)
         e);
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      note_ident fc node locals ~call:false
        ~line:(Tool_common.line_of e.pexp_loc) txt
  | Pexp_let (rf, vbs, body) ->
      let locals' =
        List.fold_left
          (fun locals' vb ->
            match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
            | Ppat_var { txt = name; _ } when is_fun vb.pvb_expr ->
                let key = node.key ^ "." ^ name in
                let child =
                  new_summary ~attrs:vb.pvb_attributes fc key
                    (Tool_common.line_of vb.pvb_loc)
                in
                let inner =
                  (* recursive locals see themselves *)
                  if rf = Asttypes.Recursive then (name, key) :: locals'
                  else locals'
                in
                walk fc child inner ~spine:true vb.pvb_expr;
                (name, key) :: locals'
            | _ ->
                walk fc node locals' ~spine:false vb.pvb_expr;
                locals')
          locals vbs
      in
      walk fc node locals' ~spine:false body
  | Pexp_apply (fn, args) -> walk_apply fc node locals e fn args
  | Pexp_setfield (target, _, value) ->
      (match global_target fc locals target with
      | Some (m, name) ->
          record_mutation fc node ~m ~name
            ~line:(Tool_common.line_of e.pexp_loc)
            ~how:"field write"
      | None -> walk fc node locals ~spine:false target);
      walk fc node locals ~spine:false value
  | Pexp_fun (_, default, _, body) ->
      Option.iter (walk fc node locals ~spine:false) default;
      (* inner fun layers are the same function, spine or closure *)
      walk fc node locals ~spine:true body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (walk fc node locals ~spine:false) c.pc_guard;
          walk fc node locals ~spine:true c.pc_rhs)
        cases
  | Pexp_newtype (_, body) -> walk fc node locals ~spine:true body
  | _ -> iter_children fc node locals e

and iter_children fc node locals (e : expression) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ c -> walk fc node locals ~spine:false c);
    }
  in
  Ast_iterator.default_iterator.expr it e

(* An expression passed where a callback is expected: either a literal
   closure (which becomes its own synthetic summary) or the name of a
   function (marked as a root after all files are read). *)
and handle_callback fc (node : summary) locals kind (arg : expression) =
  let arg = Tool_common.strip arg in
  match arg.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
      (* constructing the callback is the registering function's work *)
      List.iter
        (fun (kind, via, line) -> add_effect node kind via line)
        (fc.hooks.expr_effects ~cur_module:fc.cur_module
           ~resolve:(resolve_mod fc)
           ~toplevel:(Hashtbl.mem fc.toplevel)
           arg);
      let line = Tool_common.line_of arg.pexp_loc in
      let key = Printf.sprintf "%s.<cb@%d>" node.key line in
      let cb = new_summary fc key line in
      cb.root <- Some kind;
      walk fc cb locals ~spine:true arg
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match List.assoc_opt x locals with
      | Some key -> fc.pending_roots <- (key, kind) :: fc.pending_roots
      | None ->
          if Hashtbl.mem fc.toplevel x then
            fc.pending_roots <-
              (fc.cur_module ^ "." ^ x, kind) :: fc.pending_roots
          else node.unknown <- true)
  | Pexp_ident { txt; _ } -> (
      match Tool_common.last_two txt with
      | Some (m, f) ->
          fc.pending_roots <-
            (resolve_mod fc m ^ "." ^ f, kind) :: fc.pending_roots
      | None -> ())
  | _ ->
      (* computed callback: analyze it in place, taint the caller *)
      node.unknown <- true;
      walk fc node locals ~spine:false arg

and walk_apply fc node locals (e : expression) fn args =
  let line = Tool_common.line_of e.pexp_loc in
  let positional =
    List.filter_map
      (fun (lbl, a) ->
        match lbl with Asttypes.Nolabel -> Some a | _ -> None)
      args
  in
  let fn_path =
    match (Tool_common.strip fn).pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Tool_common.last_two txt with
        | Some (m, f) -> Some (resolve_mod fc m, f)
        | None -> None)
    | _ -> None
  in
  (* the callee itself *)
  (match (Tool_common.strip fn).pexp_desc with
  | Pexp_ident { txt; _ } -> note_ident fc node locals ~call:true ~line txt
  | Pexp_fun _ | Pexp_function _ ->
      (* immediately-applied closure: effects are the caller's *)
      walk fc node locals ~spine:false fn
  | _ ->
      (* call through a field / array slot / computed expr *)
      node.unknown <- true;
      walk fc node locals ~spine:false fn);
  (* mutation shapes *)
  (match fn_path with
  | Some ("", (":=" | "incr" | "decr")) -> (
      match positional with
      | target :: _ -> (
          match global_target fc locals target with
          | Some (m, name) -> record_mutation fc node ~m ~name ~line ~how:":="
          | None -> ())
      | [] -> ())
  | Some (m, f) when fc.hooks.mutator_of (m, f) -> (
      match positional with
      | target :: _ -> (
          match global_target fc locals target with
          | Some (gm, name) ->
              record_mutation fc node ~m:gm ~name ~line ~how:(m ^ "." ^ f)
          | None -> ())
      | [] -> ())
  | _ -> ());
  (* the arguments; a registered callback is carved out as a root *)
  let cb_index =
    match fn_path with
    | Some p -> fc.hooks.registration_of p
    | None -> None
  in
  let pos = ref (-1) in
  List.iter
    (fun (lbl, a) ->
      (match lbl with Asttypes.Nolabel -> incr pos | _ -> ());
      match cb_index with
      | Some (idx, kind) when lbl = Asttypes.Nolabel && !pos = idx ->
          handle_callback fc node locals kind a
      | _ -> walk fc node locals ~spine:false a)
    args

(* ---------------- file-level collection ---------------- *)

let collect_aliases (str : structure) =
  List.filter_map
    (fun si ->
      match si.pstr_desc with
      | Pstr_module
          {
            pmb_name = { txt = Some name; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _;
          } -> (
          match Tool_common.last_two txt with
          | Some (_, last) -> Some (name, last)
          | None -> None)
      | _ -> None)
    str

let rec toplevel_bindings (str : structure) : value_binding list =
  List.concat_map
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) -> vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
          toplevel_bindings sub
      | _ -> [])
    str

let analyze_file hooks prog (src : Tool_common.source) : unit =
  let path = src.file in
  let cur_module = module_of_path path in
  match src.ast with
  | Error line ->
      prog.parse_failures <-
        {
          Tool_common.path;
          line;
          rule = "parse-error";
          message =
            Printf.sprintf
              "source does not parse as OCaml: %s needs real syntax (is this \
               file generated or preprocessed?)"
              hooks.tool;
        }
        :: prog.parse_failures
  | Ok str ->
      let bindings = toplevel_bindings str in
      let toplevel = Hashtbl.create 64 in
      let top_globals = Hashtbl.create 8 in
      (* names first: bodies may forward-reference later bindings *)
      List.iter
        (fun vb ->
          match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
          | Ppat_var { txt = name; _ } ->
              Hashtbl.replace toplevel name ();
              if (not (is_fun vb.pvb_expr)) && hooks.global_rhs vb.pvb_expr
              then Hashtbl.replace top_globals name ()
          | _ -> ())
        bindings;
      let fc =
        {
          prog;
          hooks;
          path;
          cur_module;
          aliases = collect_aliases str;
          toplevel;
          top_globals;
          pending_roots = [];
        }
      in
      List.iter
        (fun vb ->
          match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
          | Ppat_var { txt = name; _ } when is_fun vb.pvb_expr ->
              let key = cur_module ^ "." ^ name in
              let s =
                new_summary ~attrs:vb.pvb_attributes fc key
                  (Tool_common.line_of vb.pvb_loc)
              in
              s.root <-
                hooks.binding_root ~cur_module ~name vb.pvb_attributes;
              walk fc s [ (name, key) ] ~spine:true vb.pvb_expr
          | Ppat_var _ -> hooks.on_toplevel ~cur_module ~path vb
          | _ -> ())
        bindings;
      (* roots named (rather than written inline) at registration sites *)
      List.iter
        (fun (key, kind) ->
          match Hashtbl.find_opt prog.summaries key with
          | Some s ->
              s.root <-
                Some
                  (match s.root with
                  | None -> kind
                  | Some existing -> hooks.merge_root ~existing kind)
          | None -> ())
        fc.pending_roots

(* ---------------- pass 2: propagation ---------------- *)

type hit = {
  h_kind : string;
  h_sum : summary;
  h_site : effect_site;
  h_chain : string; (* "root -> a -> b", keys joined *)
}

(* BFS from [root]; the first witness per effect kind, in discovery
   order. Shortest chains first, so diagnostics name the most direct
   witness. *)
let reach prog (root : summary) : hit list =
  let visited = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace visited root.key ();
  Queue.add root.key queue;
  let chain_to key =
    let rec up acc key =
      match Hashtbl.find_opt parent key with
      | Some p -> up (key :: acc) p
      | None -> key :: acc
    in
    String.concat " -> " (up [] key)
  in
  let hits = ref [] in
  let seen_kind = Hashtbl.create 8 in
  while not (Queue.is_empty queue) do
    let key = Queue.take queue in
    match Hashtbl.find_opt prog.summaries key with
    | None -> ()
    | Some s ->
        List.iter
          (fun (kind, site) ->
            if not (Hashtbl.mem seen_kind kind) then begin
              Hashtbl.replace seen_kind kind ();
              hits :=
                { h_kind = kind; h_sum = s; h_site = site;
                  h_chain = chain_to s.key }
                :: !hits
            end)
          (List.rev s.intrinsic);
        List.iter
          (fun callee ->
            if not (Hashtbl.mem visited callee) then begin
              Hashtbl.replace visited callee ();
              Hashtbl.replace parent callee key;
              Queue.add callee queue
            end)
          (List.rev s.calls)
  done;
  List.rev !hits

(* ---------------- public interface ---------------- *)

let analyze_files hooks (files : Tool_common.source list) : program =
  let prog = { summaries = Hashtbl.create 512; parse_failures = [] } in
  List.iter (analyze_file hooks prog) files;
  prog

let summary_of (prog : program) key = Hashtbl.find_opt prog.summaries key

let roots (prog : program) : summary list =
  Hashtbl.fold
    (fun _ s acc -> if s.root <> None then s :: acc else acc)
    prog.summaries []
  |> List.sort (fun a b -> String.compare a.key b.key)

let all_summaries (prog : program) : summary list =
  Hashtbl.fold (fun _ s acc -> s :: acc) prog.summaries []
  |> List.sort (fun a b -> String.compare a.key b.key)
