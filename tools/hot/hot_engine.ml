(* dk-hot: interprocedural hot-path cost analysis over the whole lib/
   source set.

   The paper's core claim is that the datapath budget is ~1000 cycles
   per I/O: an OS that wants to interpose on a kernel-bypass datapath
   can afford no allocation, no unbounded walks and no structural
   hashing on the per-operation path. dk-hot enforces that budget
   statically. The two-pass machinery — per-function effect summaries,
   the approximated call graph, the BFS that reports violations at
   entry points with the offending call chain — lives in {!Interproc}
   and is shared with dk-shard. This module supplies the cost-specific
   content:

   - the hot roots: the NIC/RDMA delivery and submit surface, the Demi
     per-op API, the doorbell flush path, the engine step loop, plus
     anything marked [[@@hot]];
   - the intrinsic cost sources, in three families:
       alloc:*  per-op heap allocation (closure capture, tuple/list/
                record construction, Bytes/String/Array builders,
                format strings) unless pooled or classified
                [[@@hot.alloc "why"]]
       scan:*   iteration or sorting over unbounded collections
                (Hashtbl and Itbl walks, Det and Itbl sorted
                iteration, List traversal)
       poly:*   polymorphic compare/hash (Hashtbl.hash, bare
                [compare], structural [=] on constructed values, and
                any keyed stdlib Hashtbl operation: it runs [caml_hash]
                and [caml_compare] whatever the key, where [Itbl] runs
                a multiply and a machine compare on an int), and bare
                [min]/[max], a C call even on ints

   Rule families:
     hot-alloc       alloc:* reachable from a hot root
     hot-complexity  scan:*  reachable from a hot root
     hot-poly        poly:*  reachable from a hot root
     hot-annotation  [@@hot.alloc] with no why, or exempting nothing

   Deliberate precision boundaries (documented, not bugs): boxed
   int64 arithmetic is not flagged (virtual-time timestamps are the
   sim's currency, not datapath payload); variant construction
   ([Some x], [Ok x]) is not flagged outside [=] comparisons; and
   [Queue.add]/[Hashtbl.replace] cell allocation is not flagged — the
   sim's queues stand in for preallocated descriptor rings, and
   charging every enqueue would drown the signal in annotations. A
   capture-free lambda is a static closure, allocated once at module
   init, so only capturing lambdas are charged. *)

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

(* ---------------- roots ---------------- *)

let r_rx = "rx-delivery"
let r_tx = "tx-submit"
let r_api = "demi-api"
let r_db = "doorbell-flush"
let r_step = "engine-step"
let r_annot = "annotated"

(* The per-operation surface. Everything here runs once (or more) per
   packet, per completion or per queue token — the paper's 1000-cycle
   budget applies to exactly these functions and their callees. *)
let root_table =
  [
    (("Nic", "receive"), r_rx);
    (("Nic", "poll_rx"), r_rx);
    (("Nic", "transmit"), r_tx);
    (("Nic", "transmit_many"), r_tx);
    (("Rdma", "post_recv"), r_rx);
    (("Rdma", "poll_recv_cq"), r_rx);
    (("Rdma", "poll_send_cq"), r_rx);
    (("Rdma", "post_send"), r_tx);
    (("Rdma", "post_send_many"), r_tx);
    (("Rdma", "post_read"), r_tx);
    (("Rdma", "post_write"), r_tx);
    (("Demi", "push"), r_api);
    (("Demi", "push_batch"), r_api);
    (("Demi", "pop"), r_api);
    (("Demi", "wait_next"), r_api);
    (("Doorbell", "submit"), r_db);
    (("Doorbell", "flush"), r_db);
    (("Doorbell", "group"), r_db);
    (("Engine", "step"), r_step);
    (("Engine", "step_group"), r_step);
  ]

let binding_root ~cur_module ~name attrs =
  match List.assoc_opt (cur_module, name) root_table with
  | Some k -> Some k
  | None -> if Interproc.has_attr "hot" attrs then Some r_annot else None

(* ---------------- intrinsic cost sources (by name) ---------------- *)

(* The keyed [Hashtbl] operations: each hashes its key. *)
let hashtbl_keyed_ops =
  [ "add"; "replace"; "find"; "find_opt"; "find_all"; "mem"; "remove" ]

(* [Det] (lib/util/det.ml) is the sanctioned deterministic-iteration
   wrapper; its internals are exempt because every call SITE of
   [Det.iter_sorted] & co. is charged instead — the sort is the
   caller's per-op cost, wherever it hides. [Itbl] (lib/util/itbl.ml)
   is [Hashtbl] over int keys: its walks are scans, and its
   [fold_sorted] is charged at the call site as [Det]'s are. *)
let intrinsic_of ~cur_module ~call (m, f) : (string * string) option =
  let k kind = Some (kind, if m = "" then f else m ^ "." ^ f) in
  match (m, f) with
  (* alloc: a fresh heap block per call *)
  | ( "Bytes",
      ( "create" | "make" | "init" | "copy" | "sub" | "extend" | "cat"
      | "concat" | "of_string" | "to_string" | "sub_string" ) ) ->
      k "alloc:bytes"
  | ( "String",
      ( "make" | "init" | "sub" | "concat" | "cat" | "map" | "mapi"
      | "split_on_char" | "trim" | "escaped" | "uppercase_ascii"
      | "lowercase_ascii" | "capitalize_ascii" | "of_seq" ) ) ->
      k "alloc:string"
  | ( "Array",
      ( "make" | "create_float" | "init" | "of_list" | "to_list" | "copy"
      | "append" | "sub" | "concat" | "map" | "mapi" | "of_seq" | "split"
      | "combine" ) ) ->
      k "alloc:array"
  | ( "List",
      ( "map" | "mapi" | "rev_map" | "init" | "filter" | "filter_map"
      | "partition" | "append" | "concat" | "concat_map" | "flatten" | "rev"
      | "rev_append" | "of_seq" | "split" | "combine" | "cons" | "map2"
      | "merge" ) ) ->
      k "alloc:list"
  | ("Printf" | "Format"), ("sprintf" | "asprintf") -> k "alloc:format"
  | "Buffer", ("create" | "contents" | "to_bytes" | "sub") -> k "alloc:buffer"
  | ("Queue" | "Stack"), "create" | ("Hashtbl" | "Itbl"), ("create" | "copy")
    ->
      k "alloc:container"
  | "Option", ("map" | "bind" | "join" | "to_list" | "some") ->
      k "alloc:option"
  | "Result", ("map" | "bind" | "map_error") -> k "alloc:option"
  | "", "ref" when call -> k "alloc:ref"
  | "", "^" when call -> k "alloc:string"
  | "", "@" when call -> k "alloc:list"
  (* scan: work proportional to a collection the op did not create *)
  | ( ("Hashtbl" | "Itbl"),
      ( "iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values"
      | "filter_map_inplace" ) )
    when cur_module <> "Det" && cur_module <> "Itbl" ->
      k "scan:hashtbl"
  | "Det", ("iter_sorted" | "fold_sorted" | "keys_sorted" | "bindings_sorted")
    when cur_module <> "Det" ->
      k "scan:det-sort"
  | "Itbl", "fold_sorted" when cur_module <> "Itbl" -> k "scan:det-sort"
  | ( "List",
      ( "iter" | "iteri" | "fold_left" | "fold_right" | "for_all" | "exists"
      | "mem" | "memq" | "assoc" | "assoc_opt" | "mem_assoc" | "find"
      | "find_opt" | "find_map" | "length" | "nth" | "nth_opt"
      | "compare_lengths" | "iter2" | "fold_left2" | "for_all2" | "exists2" )
    ) ->
      k "scan:list"
  | ("List" | "Array"), ("sort" | "stable_sort" | "sort_uniq" | "fast_sort")
    ->
      k "scan:sort"
  | "Queue", ("iter" | "fold" | "copy" | "transfer" | "to_seq") ->
      k "scan:queue"
  | "Seq", ("iter" | "iteri" | "fold_left" | "length") -> k "scan:seq"
  (* poly: structural hash/compare walks the value every call *)
  | "Hashtbl", "hash" -> k "poly:hash"
  | "Hashtbl", f when List.mem f hashtbl_keyed_ops -> k "poly:hashtbl"
  | ("" | "Stdlib"), "compare" -> k "poly:compare"
  | ("" | "Stdlib"), ("min" | "max") when call -> k "poly:minmax"
  | _ -> None

(* ---------------- shape-based effects ---------------- *)

(* Bare idents that are Stdlib values, not captures: referencing them
   inside a lambda does not force a closure environment. *)
let stdlib_names =
  [
    "ignore"; "not"; "fst"; "snd"; "min"; "max"; "abs"; "succ"; "pred";
    "compare"; "string_of_int"; "int_of_string"; "string_of_float";
    "float_of_int"; "int_of_float"; "int_of_char"; "char_of_int"; "truncate";
    "print_endline"; "print_string"; "prerr_endline"; "failwith";
    "invalid_arg"; "raise"; "raise_notrace"; "exit"; "incr"; "decr"; "ref";
    "max_int"; "min_int"; "infinity"; "nan";
  ]

(* Free variables of a lambda, over-approximating the bound set (every
   pattern variable anywhere in the subtree counts as bound, scoping
   ignored) so shadowing can only hide a capture, never invent one. A
   lambda with no captures is a static closure — allocated once at
   module initialization — and is deliberately not charged. *)
let captures ~toplevel (e : expression) : string list =
  let bound = Hashtbl.create 16 and used = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              Hashtbl.replace bound txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } ->
              Hashtbl.replace used x ()
          | Pexp_let (_, vbs, _) ->
              (* let-bound names are bound even for non-pattern walks *)
              List.iter
                (fun vb ->
                  match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
                  | Ppat_var { txt; _ } -> Hashtbl.replace bound txt ()
                  | _ -> ())
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  Hashtbl.fold
    (fun x () acc ->
      if
        Hashtbl.mem bound x || toplevel x || Interproc.is_operator x
        || List.mem x stdlib_names
      then acc
      else x :: acc)
    used []
  |> List.sort String.compare

let positional args =
  List.filter_map
    (fun (lbl, a) -> match lbl with Asttypes.Nolabel -> Some a | _ -> None)
    args

let fn_name ~resolve (fn : expression) =
  match (Tool_common.strip fn).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Tool_common.last_two txt with
      | Some (m, f) -> Some ((if m = "" then "" else resolve m), f)
      | None -> None)
  | _ -> None

(* A non-immediate operand of [=]: comparing it walks structure. *)
let structured (e : expression) =
  match (Tool_common.strip e).pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | _ -> false

let expr_effects ~cur_module:_ ~resolve ~toplevel (e : expression) :
    (string * string * int) list =
  let line = Tool_common.line_of e.pexp_loc in
  match e.pexp_desc with
  | Pexp_tuple _ -> [ ("alloc:tuple", "tuple construction", line) ]
  | Pexp_record _ -> [ ("alloc:record", "record construction", line) ]
  | Pexp_array _ -> [ ("alloc:array", "array literal", line) ]
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) ->
      [ ("alloc:list", "list cons", line) ]
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> (
      (* only reached for lambdas that are values the body constructs:
         the engine hides the fun-layer spine of named bindings *)
      match captures ~toplevel e with
      | [] -> []
      | c :: _ ->
          [ ("alloc:closure", Printf.sprintf "closure capturing %s" c, line) ]
      )
  | Pexp_let (_, vbs, _) ->
      (* let-bound local functions become child summaries in the
         engine, so this node is where their closure allocation is
         charged to the enclosing function *)
      let names =
        List.filter_map
          (fun vb ->
            match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
            | Ppat_var { txt; _ } -> Some txt
            | _ -> None)
          vbs
      in
      List.filter_map
        (fun vb ->
          match (Tool_common.strip_pat vb.pvb_pat).ppat_desc with
          | Ppat_var { txt = name; _ } when Interproc.is_fun vb.pvb_expr -> (
              match
                List.filter
                  (fun c -> not (List.mem c names))
                  (captures ~toplevel vb.pvb_expr)
              with
              | [] -> None
              | c :: _ ->
                  Some
                    ( "alloc:closure",
                      Printf.sprintf "local fun %s capturing %s" name c,
                      Tool_common.line_of vb.pvb_loc ))
          | _ -> None)
        vbs
  | Pexp_apply (fn, args) -> (
      let pos = positional args in
      match fn_name ~resolve fn with
      | Some ("", ("=" | "<>")) when List.exists structured pos ->
          [ ("poly:structural-eq", "structural (=) on constructed value",
             line) ]
      | _ -> [])
  | _ -> []

(* ---------------- the hooks wiring ---------------- *)

let hooks : Interproc.hooks =
  {
    (Interproc.default_hooks ~tool:"dk-hot") with
    intrinsic_of;
    expr_effects;
    binding_root;
  }

(* ---------------- program and annotation audit ---------------- *)

type program = { ip : Interproc.program; annotations : finding list }

let alloc_kind k = Tool_common.starts_with ~prefix:"alloc:" k

(* [@@hot.alloc "why"] classifies a function's own allocations as
   deliberate (pool refill, sim bookkeeping, API-mandated handle). The
   audit runs before the exemption so a why-less or do-nothing
   annotation still fails: an annotation that exempts nothing is a
   stale claim about the code and has to go. *)
let audit_annotations (ip : Interproc.program) : finding list =
  List.filter_map
    (fun (s : summary) ->
      match Interproc.find_attr "hot.alloc" s.attrs with
      | None -> None
      | Some a ->
          let why = Interproc.attr_string a in
          let allocs = List.filter (fun (k, _) -> alloc_kind k) s.intrinsic in
          s.intrinsic <-
            List.filter (fun (k, _) -> not (alloc_kind k)) s.intrinsic;
          if why = "" then
            Some
              {
                Tool_common.path = s.s_path;
                line = s.def_line;
                rule = "hot-annotation";
                message =
                  Printf.sprintf
                    "[@@hot.alloc] on %s needs a reason: write [@@hot.alloc \
                     \"why this allocation is deliberate\"]"
                    s.key;
              }
          else if allocs = [] then
            Some
              {
                Tool_common.path = s.s_path;
                line = s.def_line;
                rule = "hot-annotation";
                message =
                  Printf.sprintf
                    "[@@hot.alloc] on %s exempts nothing: the function \
                     performs no tracked allocation — remove the annotation \
                     (callee allocations are classified at the callee)"
                    s.key;
              }
          else None)
    (Interproc.all_summaries ip)

let analyze_files (files : Tool_common.source list) : program =
  let ip = Interproc.analyze_files hooks files in
  let annotations = audit_annotations ip in
  { ip; annotations }

(* ---------------- pass 2: findings ---------------- *)

let family_of kind =
  if Tool_common.starts_with ~prefix:"alloc:" kind then
    Some ("hot-alloc", "per-op heap allocation")
  else if Tool_common.starts_with ~prefix:"scan:" kind then
    Some ("hot-complexity", "unbounded per-op scan")
  else if Tool_common.starts_with ~prefix:"poly:" kind then
    Some ("hot-poly", "polymorphic compare/hash")
  else None

let advice = function
  | "hot-alloc" ->
      "write into storage the caller already owns (a preallocated buffer or \
       ring) or classify the allocating function [@@hot.alloc \"why\"]"
  | "hot-complexity" ->
      "a hot operation must not walk connection- or token-indexed \
       collections; keep a direct index or cache the result off the hot path"
  | _ ->
      "polymorphic compare/hash walks the structure on every call; pack an \
       int key into a Dk_util.Itbl or use a monomorphic compare"

(* One finding per rule family per root, at the root's definition, with
   the shortest witness chain — the budget is the root's, wherever in
   its callees the cost hides. *)
let propagate_root prog (root : summary) : finding list =
  let hits = Interproc.reach prog.ip root in
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (h : Interproc.hit) ->
      match family_of h.h_kind with
      | Some (rule, noun) when not (Hashtbl.mem seen rule) ->
          Hashtbl.replace seen rule ();
          Some
            {
              Tool_common.path = root.s_path;
              line = root.def_line;
              rule;
              message =
                Printf.sprintf "%s reachable from %s root %s: %s -> %s \
                                (%s:%d) — %s"
                  noun
                  (Option.value root.root ~default:r_annot)
                  root.key h.h_chain h.h_site.via h.h_sum.s_path h.h_site.at
                  (advice rule);
            }
      | _ -> None)
    hits

let findings (prog : program) : finding list =
  let roots = Interproc.roots prog.ip in
  prog.ip.parse_failures @ prog.annotations
  @ List.concat_map (propagate_root prog) roots
  |> List.sort_uniq Tool_common.compare_finding

let summary_of (prog : program) key = Interproc.summary_of prog.ip key

(* ---------------- hot-root inventory ---------------- *)

type root_info = {
  r_key : string;
  r_kind : string;
  r_path : string;
  r_line : int;
  r_reached : int;  (* analyzed functions reachable from this root *)
}

let inventory (prog : program) : root_info list =
  let reached (root : summary) =
    let visited = Hashtbl.create 64 in
    let rec go key =
      if not (Hashtbl.mem visited key) then
        match Interproc.summary_of prog.ip key with
        | Some s ->
            Hashtbl.replace visited key ();
            List.iter go s.calls
        | None -> ()
    in
    go root.key;
    Hashtbl.length visited
  in
  Interproc.roots prog.ip
  |> List.map (fun (s : summary) ->
         {
           r_key = s.key;
           r_kind = Option.value s.root ~default:r_annot;
           r_path = s.s_path;
           r_line = s.def_line;
           r_reached = reached s;
         })

let inventory_json (roots : root_info list) : string =
  let esc = Tool_common.json_escape in
  let entry r =
    Printf.sprintf
      "    {\"root\": \"%s\", \"kind\": \"%s\", \"path\": \"%s\", \"line\": \
       %d, \"reached\": %d}"
      (esc r.r_key) (esc r.r_kind) (esc r.r_path) r.r_line r.r_reached
  in
  Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.map entry roots))

let inventory_table (roots : root_info list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-32s %-16s %-8s %s\n" "hot root" "kind" "reached"
       "where");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-32s %-16s %-8d %s:%d\n" r.r_key r.r_kind
           r.r_reached r.r_path r.r_line))
    roots;
  Buffer.contents b
