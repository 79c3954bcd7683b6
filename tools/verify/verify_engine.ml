(* dk-verify engine: an intra-procedural typestate/dataflow analysis
   over the Demi API, run on each file's parse tree
   ({!Tool_common.parse}).

   The domain tracks three kinds of let-bound values:

     qd      socket/bind/listen/accept/connect/close lifecycle states
     qtoken  live / redeemed / watched linearity states
     sga     owned / in-flight (pushed, wait not yet completed)

   Escape is the safety valve: any use of a tracked value outside the
   recognized Demi-call positions (another function, a closure capture,
   a data structure, the scope's result) drops tracking and all
   obligations, so reports only fire on locally-provable breaks. *)

open Parsetree
open Tool_common

(* ---------------- small helpers ---------------- *)

(* [Demi.push], [Demikernel.Demi.push], and driver-style aliases
   ([Demi_rt.push]) all count as the Demi API. *)
let demi_fn (e : expression) : string option =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match last_two txt with
      | Some (("Demi" | "Demi_rt"), f) -> Some f
      | _ -> None)
  | _ -> None

let ident_name (e : expression) : string option =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | _ -> None

(* Unwrap helpers whose application to an [Ok v] yields [v]. *)
let unwrap_fn (e : expression) : bool =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match last_two txt with
      | Some ("Result", "get_ok") -> true
      | Some ("", ("must" | "ok_exn" | "unwrap" | "get_ok")) -> true
      | _ -> false)
  | _ -> false

(* ---------------- the Demi API surface ---------------- *)

(* Functions returning [(_, Types.error) result]. *)
let result_fns =
  [
    "socket"; "bind"; "listen"; "accept_async"; "accept"; "connect"; "close";
    "push"; "pop"; "sga_alloc"; "sga_alloc_segs"; "merge"; "filter";
    "filter_fn"; "map"; "map_fn"; "sort"; "steer"; "qconnect"; "fcreate";
    "fopen"; "rdma_endpoint";
  ]

let token_producers = [ "push"; "pop"; "accept_async" ]
let qd_result_producers =
  [ "socket"; "accept"; "rdma_endpoint"; "fcreate"; "fopen"; "merge";
    "filter"; "filter_fn"; "map"; "map_fn"; "sort" ]

(* ---------------- abstract domain ---------------- *)

type qd_state = QFresh | QBound | QListening | QReady | QClosed | QTop
type tok_state = TLive | TPart | TWaited | TWatched | TMaybe
type sga_state = SOwned | SInflight

type absval =
  | Qd of { qs : qd_state; ever_closed : bool; born : int }
  | Tok of { ts : tok_state; born : int; sga : string option }
  | Sga of { ss : sga_state; born : int }

module Env = Map.Make (String)

type env = absval Env.t

let join_env (a : env) (b : env) : env =
  Env.merge
    (fun _ va vb ->
      match (va, vb) with
      | Some (Qd x), Some (Qd y) ->
          Some
            (Qd
               {
                 qs = (if x.qs = y.qs then x.qs else QTop);
                 ever_closed = x.ever_closed || y.ever_closed;
                 born = x.born;
               })
      | Some (Tok x), Some (Tok y) ->
          let ts =
            if x.ts = y.ts then x.ts
            else if x.ts = TPart || y.ts = TPart then TPart
            else if x.ts = TLive || y.ts = TLive then TPart
            else TMaybe
          in
          Some (Tok { x with ts; sga = (if x.sga = y.sga then x.sga else None) })
      | Some (Sga x), Some (Sga y) -> if x.ss = y.ss then Some (Sga x) else None
      | _ -> None)
    a b

type ctx = { path : string; findings : finding list ref }

let report ctx line rule message =
  ctx.findings :=
    { Tool_common.path = ctx.path; line; rule; message } :: !(ctx.findings)

(* ---------------- qd transitions ---------------- *)

let state_name = function
  | QFresh -> "a fresh socket"
  | QBound -> "a bound qd"
  | QListening -> "a listening qd"
  | QReady -> "an established qd"
  | QClosed -> "a closed qd"
  | QTop -> "a qd"

let closed_use ctx line op =
  report ctx line "qd-typestate"
    (Printf.sprintf
       "%s on a closed qd: its descriptor-table entry and device resources \
        are gone, and a bypass stack fails silently instead of EBADF"
       op)

(* Apply [op] to a qd currently in [st]; report protocol breaks and
   return the successor state. *)
let qd_transition ctx line op st =
  match (op, st) with
  | _, QTop -> if op = "close" then QClosed else QTop
  | _, QClosed ->
      if op = "close" then begin
        report ctx line "qd-typestate"
          "close on an already-closed qd: the Figure-3 lifecycle closes \
           exactly once (the second close can hit a reused descriptor)";
        QClosed
      end
      else begin
        closed_use ctx line ("Demi." ^ op);
        QClosed
      end
  | "bind", QFresh -> QBound
  | "bind", QBound ->
      report ctx line "qd-typestate"
        "bind on a qd that is already bound: bind comes once, before listen";
      QBound
  | "bind", (QListening | QReady) ->
      report ctx line "qd-typestate"
        (Printf.sprintf
           "bind on %s: the Figure-3 lifecycle is socket → bind → listen / \
            connect — binding after establishment cannot take effect"
           (state_name st));
      st
  | "listen", QBound -> QListening
  | "listen", QFresh ->
      report ctx line "qd-typestate"
        "listen before bind: an unbound socket has no local port to listen \
         on (socket → bind → listen → accept)";
      QListening
  | "listen", QListening ->
      report ctx line "qd-typestate" "listen called twice on the same qd";
      QListening
  | "listen", QReady ->
      report ctx line "qd-typestate"
        "listen on an established qd: listening and connected roles are \
         exclusive";
      st
  | ("accept" | "accept_async"), QListening -> QListening
  | ("accept" | "accept_async"), (QFresh | QBound | QReady) ->
      report ctx line "qd-typestate"
        (Printf.sprintf
           "accept on %s: only a listening qd produces accept completions \
            (socket → bind → listen → accept)"
           (state_name st));
      st
  | "connect", (QFresh | QBound) -> QReady
  | "connect", QListening ->
      report ctx line "qd-typestate"
        "connect on a listening qd: listening and connecting roles are \
         exclusive";
      st
  | "connect", QReady ->
      (* legal re-target for UDP/filtered queues; nothing to prove *)
      QReady
  | ("push" | "pop" | "blocking_push" | "blocking_pop"), (QReady | QBound) ->
      st
  | ("push" | "pop" | "blocking_push" | "blocking_pop"), QListening ->
      report ctx line "qd-typestate"
        (Printf.sprintf
           "%s on a listening qd: listening descriptors only produce accept \
            completions, never data"
           op);
      st
  | ("push" | "pop" | "blocking_push" | "blocking_pop"), QFresh ->
      report ctx line "qd-typestate"
        (Printf.sprintf
           "%s on a socket that is neither bound nor connected: the data \
            path has no peer (connect first, or bind for UDP receive)"
           op);
      st
  | "close", _ -> QClosed
  | _, _ -> st

(* ---------------- token / sga operations ---------------- *)

let release_sga env = function
  | Some s -> (
      match Env.find_opt s env with
      | Some (Sga g) when g.ss = SInflight ->
          Env.add s (Sga { g with ss = SOwned }) env
      | _ -> env)
  | None -> env

(* Redeem/poll/watch a tracked token. *)
let consume_tok ctx env line kind name (t : [ `Wait | `Maybe | `Watch ]) =
  match Env.find_opt name env with
  | Some (Tok k) ->
      let env = release_sga env k.sga in
      let reportd msg = report ctx line "token-linear" msg in
      let ts =
        match (t, k.ts) with
        | `Wait, (TLive | TPart | TMaybe) -> TWaited
        | `Wait, TWaited ->
            reportd
              (Printf.sprintf
                 "%s on a qtoken already redeemed: each token completes \
                  exactly once — the second wait returns Bad_qtoken or \
                  blocks forever (§4.4)"
                 kind);
            TWaited
        | `Wait, TWatched ->
            reportd
              (Printf.sprintf
                 "%s on a watched qtoken: watch/wait exclusion is \
                  unconditional — the scheduler already owns this \
                  completion (§4.4)"
                 kind);
            TWatched
        | `Maybe, TLive -> TMaybe
        | `Maybe, s -> s
        | `Watch, (TLive | TPart | TMaybe) -> TWatched
        | `Watch, TWatched ->
            reportd
              "watch installed twice on the same qtoken: exactly one \
               callback may own a completion (§4.4 exactly-one-wakeup)";
            TWatched
        | `Watch, TWaited ->
            reportd
              "watch on a qtoken already redeemed by wait: the completion \
               is spent, the callback can never fire";
            TWatched
      in
      Env.add name (Tok { k with ts; sga = None }) env
  | _ -> env

let sga_inflight_use ctx env line name ~how =
  match Env.find_opt name env with
  | Some (Sga g) when g.ss = SInflight ->
      report ctx line "sga-ownership"
        (Printf.sprintf
           "sga %s after push and before the wait completes: zero-copy push \
            transfers ownership to the device, which may still be DMA-ing \
            these bytes (§4.5)"
           how);
      Env.remove name env
  | _ -> env

(* ---------------- obligations at scope exit ---------------- *)

let check_obligation ctx name v =
  match v with
  | Tok { ts = TLive; born; _ } ->
      report ctx born "token-linear"
        (Printf.sprintf
           "qtoken %s never reaches wait/try_wait/watch: its completion can \
            never wake anyone, and the queue slot it pins is never redeemed \
            (§4.4 exactly-one-wakeup)"
           name)
  | Tok { ts = TPart; born; _ } ->
      report ctx born "token-linear"
        (Printf.sprintf
           "qtoken %s is not redeemed on every control-flow path: some \
            branch drops the completion (§4.4 demands exactly one wakeup \
            per token, on every path)"
           name)
  | Qd { qs = QClosed; _ } -> ()
  | Qd { ever_closed = false; born; _ } ->
      report ctx born "qd-typestate"
        (Printf.sprintf
           "qd %s never reaches close on any path: the descriptor-table \
            entry and its device ring survive the variable — close it, or \
            hand it to an owner that will"
           name)
  | Qd { ever_closed = true; born; _ } ->
      report ctx born "qd-typestate"
        (Printf.sprintf
           "qd %s is closed on some paths but not all: the unclosed path \
            leaks the descriptor (close-exactly-once means every path)"
           name)
  | _ -> ()

(* ---------------- AST utilities ---------------- *)

let immediate_children (e : expression) : expression list =
  let acc = ref [] in
  let collector =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr collector e;
  List.rev !acc

let free_lidents (e : expression) : string list =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } -> acc := x :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !acc

let rec pattern_vars (p : pattern) : string list =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pattern_vars p
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_exception p
  | Ppat_lazy p ->
      pattern_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pattern_vars p
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pattern_vars p) fields
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | _ -> []

let construct_payload_var (p : pattern) : (string * string) option =
  match (strip_pat p).ppat_desc with
  | Ppat_construct ({ txt; _ }, Some (_, inner)) -> (
      match last_two txt with
      | Some (_, ctor) -> (
          match (strip_pat inner).ppat_desc with
          | Ppat_var { txt = v; _ } when v = "" || v.[0] <> '_' ->
              Some (ctor, v)
          | _ -> None)
      | None -> None)
  | _ -> None

let is_fun (e : expression) =
  match (strip e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* ---------------- the analysis ---------------- *)

(* What the Ok constructor of a recognized producer call carries. *)
type payload =
  | PQd of qd_state
  | PTok of string option (* in-flight sga tied to the minted token *)
  | PSga
  | PNone

let rec analyze ctx (env : env) (e : expression) : env =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } ->
      (* bare use as a value: escapes, silently *)
      Env.remove x env
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable -> env
  | Pexp_constraint (e, _) -> analyze ctx env e
  | Pexp_open (_, e) -> analyze ctx env e
  | Pexp_sequence (a, b) ->
      let env = analyze ctx env a in
      analyze ctx env b
  | Pexp_let (_, vbs, body) ->
      let env, bound =
        List.fold_left
          (fun (env, bound) vb ->
            let env, introduced = analyze_binding ctx env vb in
            (env, introduced @ bound))
          (env, []) vbs
      in
      let env = analyze ctx env body in
      List.fold_left
        (fun env name ->
          (match Env.find_opt name env with
          | Some v -> check_obligation ctx name v
          | None -> ());
          Env.remove name env)
        env bound
  | Pexp_letop { let_; ands; body } ->
      let env, bound =
        List.fold_left
          (fun (env, bound) bop ->
            let env, introduced = analyze_binding_op ctx env bop in
            (env, introduced @ bound))
          (env, []) (let_ :: ands)
      in
      let env = analyze ctx env body in
      List.fold_left
        (fun env name ->
          (match Env.find_opt name env with
          | Some v -> check_obligation ctx name v
          | None -> ());
          Env.remove name env)
        env bound
  | Pexp_match (scrut, cases) -> analyze_match ctx env scrut cases
  | Pexp_try (body, handlers) ->
      let env_body = analyze ctx env body in
      (* exceptions may fire mid-body: handlers start from the meet of
         entry and exit, approximated by their join *)
      let env_h0 = join_env env env_body in
      let env_handlers =
        List.map
          (fun c ->
            let env_c =
              List.fold_left
                (fun e v -> Env.remove v e)
                env_h0 (pattern_vars c.pc_lhs)
            in
            let env_c =
              match c.pc_guard with
              | Some g -> analyze ctx env_c g
              | None -> env_c
            in
            analyze ctx env_c c.pc_rhs)
          handlers
      in
      List.fold_left join_env env_body env_handlers
  | Pexp_ifthenelse (cond, then_, else_) ->
      let env = analyze ctx env cond in
      let env_t = analyze ctx env then_ in
      let env_e =
        match else_ with Some e -> analyze ctx env e | None -> env
      in
      join_env env_t env_e
  | Pexp_while (cond, body) ->
      let env = analyze ctx env cond in
      join_env env (analyze ctx env body)
  | Pexp_for (pat, lo, hi, _, body) ->
      let env = analyze ctx env lo in
      let env = analyze ctx env hi in
      let env_b =
        List.fold_left (fun e v -> Env.remove v e) env (pattern_vars pat)
      in
      join_env env (analyze ctx env_b body)
  | Pexp_fun _ | Pexp_function _ -> analyze_closure ctx env e
  | Pexp_apply (fn, args) -> analyze_apply ctx env e fn args
  | _ ->
      (* generic node: every subexpression is visited; bare tracked
         idents inside escape via the Pexp_ident case *)
      List.fold_left (analyze ctx) env (immediate_children e)

(* A closure: transitions inside run zero or many times later, so the
   outer flow learns nothing — captured tracked values escape — but the
   body is still real code, analyzed on its own with a fresh env. *)
and analyze_closure ctx env (e : expression) : env =
  let env =
    List.fold_left (fun env x -> Env.remove x env) env (free_lidents e)
  in
  let rec body_of e =
    match (strip e).pexp_desc with
    | Pexp_fun (_, _, _, body) -> body_of body
    | Pexp_newtype (_, body) -> body_of body
    | _ -> e
  in
  (match (strip (body_of e)).pexp_desc with
  | Pexp_function cases ->
      List.iter
        (fun c ->
          (match c.pc_guard with
          | Some g -> ignore (analyze ctx Env.empty g)
          | None -> ());
          ignore (analyze ctx Env.empty c.pc_rhs))
        cases
  | _ -> ignore (analyze ctx Env.empty (body_of e)));
  env

and analyze_binding ctx env (vb : value_binding) : env * string list =
  let pat = strip_pat vb.pvb_pat in
  match pat.ppat_desc with
  | Ppat_var { txt = name; _ } when is_fun vb.pvb_expr ->
      (* named (possibly rec) function: analyze like a closure *)
      (analyze_closure ctx env vb.pvb_expr, [ name ])
      |> fun (env, _) -> (Env.remove name env, [])
  | Ppat_var { txt = name; _ } ->
      let env, payload = eval_rhs ctx env vb.pvb_expr in
      let born = line_of vb.pvb_loc in
      let env =
        if String.length name > 0 && name.[0] = '_' then Env.remove name env
        else
          match payload with
          | PQd qs -> Env.add name (Qd { qs; ever_closed = false; born }) env
          | PTok sga -> Env.add name (Tok { ts = TLive; born; sga }) env
          | PSga -> Env.add name (Sga { ss = SOwned; born }) env
          | PNone -> Env.remove name env
      in
      (env, [ name ])
  | _ ->
      (* wildcard / tuple / unit patterns: ignored-result is reported by
         the syntactic pass; here just analyze the RHS for transitions *)
      let env, _ = eval_rhs ctx env vb.pvb_expr in
      let env =
        List.fold_left (fun e v -> Env.remove v e) env (pattern_vars pat)
      in
      (env, pattern_vars pat)

(* [let* x = Demi.f ...] (Result.bind and friends): the bound variable
   holds the Ok payload — the Error path short-circuits out of scope,
   which the analysis soundly ignores (nothing is bound there). *)
and analyze_binding_op ctx env (bop : binding_op) : env * string list =
  let pat = strip_pat bop.pbop_pat in
  match pat.ppat_desc with
  | Ppat_var { txt = name; _ } ->
      let env, payload = eval_rhs ~unwrap_result:true ctx env bop.pbop_exp in
      let born = line_of bop.pbop_loc in
      let env =
        if String.length name > 0 && name.[0] = '_' then Env.remove name env
        else
          match payload with
          | PQd qs -> Env.add name (Qd { qs; ever_closed = false; born }) env
          | PTok sga -> Env.add name (Tok { ts = TLive; born; sga }) env
          | PSga -> Env.add name (Sga { ss = SOwned; born }) env
          | PNone -> Env.remove name env
      in
      (env, [ name ])
  | _ ->
      let env, _ = eval_rhs ctx env bop.pbop_exp in
      let env =
        List.fold_left (fun e v -> Env.remove v e) env (pattern_vars pat)
      in
      (env, pattern_vars pat)

(* Evaluate a binding RHS: recognize producer shapes and return the
   payload the bound variable receives. [unwrap_result] is set for
   [let*]-style bindings, where the variable holds the Ok payload
   rather than the wrapped result. *)
and eval_rhs ?(unwrap_result = false) ctx env (e : expression) : env * payload
    =
  let e = strip e in
  match e.pexp_desc with
  | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) when unwrap_fn fn -> (
      let arg = strip arg in
      match demi_fn_of_apply arg with
      | Some _ ->
          let env, payload = process_demi_call ctx env arg in
          (env, payload)
      | None -> (analyze ctx env arg, PNone))
  | Pexp_apply _ when demi_fn_of_apply e <> None -> (
      let env, payload = process_demi_call ctx env e in
      (* a result-returning call bound directly keeps the result
         wrapped; only direct-value producers (queue) pass through
         unless the binder itself unwraps *)
      match demi_fn_of_apply e with
      | Some f when List.mem f result_fns && not unwrap_result -> (env, PNone)
      | _ -> (env, payload))
  | _ -> (analyze ctx env e, PNone)

and demi_fn_of_apply (e : expression) : string option =
  match (strip e).pexp_desc with
  | Pexp_apply (fn, _) -> demi_fn fn
  | _ -> None

(* Process [Demi.f t args]: apply qd/token/sga transitions for tracked
   arguments, walk the rest, and describe the Ok payload. *)
and process_demi_call ctx env (e : expression) : env * payload =
  match (strip e).pexp_desc with
  | Pexp_apply (fn, args) -> (
      let f = match demi_fn fn with Some f -> f | None -> assert false in
      let line = line_of e.pexp_loc in
      let positional =
        List.filter_map
          (fun (lbl, a) ->
            match lbl with Asttypes.Nolabel -> Some a | _ -> None)
          args
      in
      let labelled l =
        List.find_map
          (fun (lbl, a) ->
            match lbl with
            | Asttypes.Labelled s when s = l -> Some a
            | _ -> None)
          args
      in
      (* positional.(0) is the Demi.t; tracked args come after *)
      let pos n = List.nth_opt positional n in
      let walk_rest ?(skip = []) env =
        (* analyze every argument that is not a specially-handled bare
           ident (so closures, nested calls, lists are still covered) *)
        List.fold_left
          (fun env (_, a) ->
            match ident_name (strip a) with
            | Some x when List.mem x skip -> env
            | Some x -> (
                match Env.find_opt x env with
                | Some (Sga _) ->
                    sga_inflight_use ctx env (line_of a.pexp_loc) x
                      ~how:"passed along"
                | Some _ -> Env.remove x env
                | None -> env)
            | None -> analyze ctx env a)
          env args
      in
      let qd_arg_transition env n op =
        match pos n with
        | Some a -> (
            match ident_name (strip a) with
            | Some x -> (
                match Env.find_opt x env with
                | Some (Qd q) ->
                    let qs = qd_transition ctx line op q.qs in
                    let ever_closed = q.ever_closed || qs = QClosed in
                    (Env.add x (Qd { q with qs; ever_closed }) env, [ x ])
                | _ -> (env, [ x ]))
            | None -> (env, []))
        | None -> (env, [])
      in
      let tok_arg_consume env kind =
        match pos 1 with
        | Some a -> (
            match ident_name (strip a) with
            | Some x ->
                ( consume_tok ctx env line f x
                    (match kind with
                    | `Wait -> `Wait
                    | `Maybe -> `Maybe
                    | `Watch -> `Watch),
                  [ x ] )
            | None -> (env, []))
        | None -> (env, [])
      in
      match f with
      | "socket" -> (walk_rest env, PQd QFresh)
      | "queue" -> (walk_rest env, PQd QReady)
      | "bind" | "listen" | "connect" | "close" ->
          let env, skip = qd_arg_transition env 1 f in
          (walk_rest ~skip env, PNone)
      | "accept" | "accept_async" ->
          let env, skip = qd_arg_transition env 1 "accept" in
          let env = walk_rest ~skip env in
          if f = "accept" then (env, PQd QReady) else (env, PTok None)
      | "pop" ->
          let env, skip = qd_arg_transition env 1 f in
          (walk_rest ~skip env, PTok None)
      | "push" | "blocking_push" ->
          let env, skip = qd_arg_transition env 1 f in
          (* the sga argument: in-flight for push, completed-in-call for
             blocking_push *)
          let env, skip, tied =
            match pos 2 with
            | Some a -> (
                match ident_name (strip a) with
                | Some x -> (
                    match Env.find_opt x env with
                    | Some (Sga g) ->
                        if g.ss = SInflight then
                          ( sga_inflight_use ctx env (line_of a.pexp_loc) x
                              ~how:"pushed again",
                            x :: skip,
                            None )
                        else if f = "push" then
                          ( Env.add x (Sga { g with ss = SInflight }) env,
                            x :: skip,
                            Some x )
                        else (env, x :: skip, None)
                    | _ -> (env, x :: skip, None))
                | None -> (env, skip, None))
            | None -> (env, skip, None)
          in
          let env = walk_rest ~skip env in
          if f = "push" then (env, PTok tied) else (env, PNone)
      | "blocking_pop" ->
          let env, skip = qd_arg_transition env 1 f in
          (walk_rest ~skip env, PNone)
      | "wait" | "wait_timeout" ->
          let kind = if f = "wait" then `Wait else `Maybe in
          let env, skip = tok_arg_consume env kind in
          (walk_rest ~skip env, PNone)
      | "try_wait" ->
          let env, skip = tok_arg_consume env `Maybe in
          (walk_rest ~skip env, PNone)
      | "watch" ->
          let env, skip = tok_arg_consume env `Watch in
          (walk_rest ~skip env, PNone)
      | "sga_free" -> (
          match pos 1 with
          | Some a -> (
              match ident_name (strip a) with
              | Some x -> (
                  match Env.find_opt x env with
                  | Some (Sga g) when g.ss = SInflight ->
                      let env =
                        sga_inflight_use ctx env line x ~how:"freed"
                      in
                      (walk_rest ~skip:[ x ] env, PNone)
                  | _ -> (walk_rest ~skip:[ x ] (Env.remove x env), PNone))
              | None -> (walk_rest env, PNone))
          | None -> (walk_rest env, PNone))
      | "sga_alloc" | "sga_alloc_segs" -> (walk_rest env, PSga)
      | "merge" | "filter" | "filter_fn" | "map" | "map_fn" | "sort"
      | "steer" ->
          (* composition: the source descriptor's fate is tied to the
             derived queue — ownership is shared, tracking ends *)
          let escape_qd env n =
            match pos n with
            | Some a -> (
                match ident_name (strip a) with
                | Some x -> (
                    match Env.find_opt x env with
                    | Some (Qd q) ->
                        if q.qs = QClosed then
                          closed_use ctx line ("Demi." ^ f);
                        (Env.remove x env, [ x ])
                    | _ -> (env, [ x ]))
                | None -> (env, []))
            | None -> (env, [])
          in
          let env, s1 = escape_qd env 1 in
          let env, s2 = if f = "merge" then escape_qd env 2 else (env, []) in
          let env = walk_rest ~skip:(s1 @ s2) env in
          if f = "steer" then (env, PNone) else (env, PQd QReady)
      | "qconnect" ->
          let check_lbl env l =
            match labelled l with
            | Some a -> (
                match ident_name (strip a) with
                | Some x -> (
                    match Env.find_opt x env with
                    | Some (Qd q) when q.qs = QClosed ->
                        closed_use ctx line "Demi.qconnect";
                        env
                    | _ -> env)
                | None -> analyze ctx env a)
            | None -> env
          in
          let env = check_lbl env "src" in
          let env = check_lbl env "dst" in
          (env, PNone)
      | "fcreate" | "fopen" | "rdma_endpoint" -> (walk_rest env, PQd QReady)
      | "wait_any" | "wait_all" ->
          (* token lists: members escape (redeemed by the call) *)
          (walk_rest env, PNone)
      | _ -> (walk_rest env, PNone))
  | _ -> (env, PNone)

(* match / begin match: producer scrutinees bind their Ok payloads and
   op_result scrutinees bind Popped/Accepted payloads in the arms. *)
and analyze_match ctx env scrut cases : env =
  let scrut = strip scrut in
  let scrut_payload, env =
    match demi_fn_of_apply scrut with
    | Some _ ->
        let env, payload = process_demi_call ctx env scrut in
        (payload, env)
    | None -> (
        (* [match unwrap (Demi.f ...) with] — payload matched directly *)
        match scrut.pexp_desc with
        | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ])
          when unwrap_fn fn && demi_fn_of_apply (strip arg) <> None ->
            let env, _ = process_demi_call ctx env (strip arg) in
            (PNone, env)
        | _ -> (PNone, analyze ctx env scrut))
  in
  let analyze_case env_in c =
    let bound = pattern_vars c.pc_lhs in
    let env_c = List.fold_left (fun e v -> Env.remove v e) env_in bound in
    (* bind the payload variable when the arm names it *)
    let env_c, tracked =
      match (construct_payload_var c.pc_lhs, scrut_payload) with
      | Some ("Ok", v), PQd qs ->
          ( Env.add v
              (Qd { qs; ever_closed = false; born = line_of c.pc_lhs.ppat_loc })
              env_c,
            [ v ] )
      | Some ("Ok", v), PTok sga ->
          ( Env.add v
              (Tok { ts = TLive; born = line_of c.pc_lhs.ppat_loc; sga })
              env_c,
            [ v ] )
      | Some ("Ok", v), PSga ->
          ( Env.add v
              (Sga { ss = SOwned; born = line_of c.pc_lhs.ppat_loc })
              env_c,
            [ v ] )
      | Some ("Popped", v), _ ->
          ( Env.add v
              (Sga { ss = SOwned; born = line_of c.pc_lhs.ppat_loc })
              env_c,
            [ v ] )
      | Some ("Accepted", v), _ ->
          ( Env.add v
              (Qd
                 {
                   qs = QReady;
                   ever_closed = false;
                   born = line_of c.pc_lhs.ppat_loc;
                 })
              env_c,
            [ v ] )
      | _ -> (env_c, [])
    in
    let env_c =
      match c.pc_guard with Some g -> analyze ctx env_c g | None -> env_c
    in
    let env_c = analyze ctx env_c c.pc_rhs in
    (* scope of arm-bound values ends with the arm *)
    List.fold_left
      (fun env name ->
        (match Env.find_opt name env with
        | Some v -> check_obligation ctx name v
        | None -> ());
        Env.remove name env)
      env_c (tracked @ bound)
  in
  match cases with
  | [] -> env
  | c :: rest ->
      List.fold_left
        (fun acc c -> join_env acc (analyze_case env c))
        (analyze_case env c) rest

and analyze_apply ctx env (e : expression) fn args : env =
  match demi_fn fn with
  | Some _ ->
      let env, _ = process_demi_call ctx env e in
      env
  | None ->
      let env = analyze ctx env fn in
      List.fold_left
        (fun env (_, a) ->
          let a' = strip a in
          match ident_name a' with
          | Some x -> (
              match Env.find_opt x env with
              | Some (Sga g) when g.ss = SInflight ->
                  sga_inflight_use ctx env (line_of a.pexp_loc) x
                    ~how:"read by another function"
              | Some _ -> Env.remove x env
              | None -> env)
          | None -> analyze ctx env a)
        env args

(* ---------------- the syntactic discard pass ---------------- *)

(* [ignore (Demi.f ...)], [let _ = Demi.f ...] and the unwrapped forms
   [ignore (Result.get_ok (Demi.push ...))] are pure shapes — no flow
   needed, and they must fire inside closures too, so they run as a
   separate whole-tree iteration. *)

let discard_findings ctx (str : structure) =
  let check_discard ~how (e : expression) =
    let e = strip e in
    match demi_fn_of_apply e with
    | Some f when List.mem f result_fns ->
        report ctx (line_of e.pexp_loc) "ignored-result"
          (Printf.sprintf
             "(_, Types.error) result of Demi.%s discarded via %s: match it \
              — with the kernel out of the I/O path, the Error constructor \
              is the only failure report the application gets (§4.4)"
             f how)
    | _ -> (
        (* unwrapped producer dropped: the payload itself leaks *)
        match e.pexp_desc with
        | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) when unwrap_fn fn -> (
            match demi_fn_of_apply (strip arg) with
            | Some f when List.mem f token_producers ->
                report ctx (line_of e.pexp_loc) "token-linear"
                  (Printf.sprintf
                     "qtoken minted by Demi.%s unwrapped and immediately \
                      discarded via %s: the completion can never be \
                      redeemed (§4.4 exactly-one-wakeup)"
                     f how)
            | Some f when List.mem f qd_result_producers ->
                report ctx (line_of e.pexp_loc) "qd-typestate"
                  (Printf.sprintf
                     "qd minted by Demi.%s unwrapped and immediately \
                      discarded via %s: the descriptor can never be closed"
                     f how)
            | _ -> ())
        | _ -> ())
  in
  let expr_hook it (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "ignore"; _ }; _ },
          [ (Asttypes.Nolabel, arg) ] ) ->
        check_discard ~how:"ignore" arg
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match (strip_pat vb.pvb_pat).ppat_desc with
            | Ppat_any -> check_discard ~how:"let _" vb.pvb_expr
            | _ -> ())
          vbs
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let str_hook it (si : structure_item) =
    (match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match (strip_pat vb.pvb_pat).ppat_desc with
            | Ppat_any -> check_discard ~how:"let _" vb.pvb_expr
            | _ -> ())
          vbs
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = expr_hook;
      structure_item = str_hook;
    }
  in
  it.structure it str

(* ---------------- toplevel ---------------- *)

let rec analyze_structure ctx (str : structure) =
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              if is_fun vb.pvb_expr then
                ignore (analyze_closure ctx Env.empty vb.pvb_expr)
              else ignore (analyze ctx Env.empty vb.pvb_expr))
            vbs
      | Pstr_eval (e, _) -> ignore (analyze ctx Env.empty e)
      | Pstr_module { pmb_expr; _ } -> analyze_module ctx pmb_expr
      | Pstr_recmodule mbs ->
          List.iter (fun { pmb_expr; _ } -> analyze_module ctx pmb_expr) mbs
      | _ -> ())
    str

and analyze_module ctx (me : module_expr) =
  match me.pmod_desc with
  | Pmod_structure str -> analyze_structure ctx str
  | Pmod_functor (_, me) | Pmod_constraint (me, _) -> analyze_module ctx me
  | _ -> ()

let check (src : source) : finding list =
  let ctx = { path = src.file; findings = ref [] } in
  (match src.ast with
  | Ok str ->
      analyze_structure ctx str;
      discard_findings ctx str
  | Error line ->
      report ctx line "parse-error"
        "source does not parse as OCaml: dk-verify needs real syntax (is \
         this file generated or preprocessed?)");
  List.sort_uniq compare_finding !(ctx.findings)

let scan_source ~path src = check (parse ~path src)
