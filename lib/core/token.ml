module Dk_check = Dk_mem.Dk_check
module Flight = Dk_obs.Flight
module Itbl = Dk_util.Itbl

(* A wait set is the readiness FIFO for one waiter: completions of
   registered tokens enqueue the token here, so the waiter learns about
   readiness in O(1) per completion instead of rescanning its whole
   token list each poll iteration. The wakeup still targets exactly the
   registered waiter (§4.4) — a token is in at most one wait set. *)
type waitset = { ready : Types.qtoken Queue.t }

type state =
  | Pending
  | Watched of (Types.op_result -> unit)
  | Queued of waitset
  | Done of Types.op_result

type audit_report = {
  dangling : Types.qtoken list;
  double_completes : int;
  redeems_after_watch : int;
}

type t = {
  table : state Itbl.t;
  audit : bool;
  (* virtual clock, when the owner has one: lets completions land in the
     flight recorder with a timestamp. Never consumes simulated time. *)
  clock : (unit -> int64) option;
  (* tombstones for tokens consumed by a watch callback, so a later
     redeem/complete on them is diagnosable (audit mode only) *)
  consumed : unit Itbl.t;
  mutable next : int;
  pending : Dk_obs.Metrics.gauge; (* instance of [g_outstanding] *)
  mutable double_completes : int;
  mutable redeems_after_watch : int;
}

(* Class-wide obs instruments (aggregated across token tables). *)
let m_minted = Dk_obs.Metrics.counter "core.token.minted"
let m_completed = Dk_obs.Metrics.counter "core.token.completed"
let m_redeemed = Dk_obs.Metrics.counter "core.token.redeemed"
let g_outstanding = Dk_obs.Metrics.gauge "core.token.outstanding"

let create ?(audit = Dk_check.enabled_from_env ()) ?now () =
  {
    table = Itbl.create 64;
    audit;
    clock = now;
    consumed = Itbl.create (if audit then 64 else 1);
    next = 1;
    pending = Dk_obs.Metrics.gauge_instance g_outstanding;
    double_completes = 0;
    redeems_after_watch = 0;
  }

let fresh t =
  let tok = t.next in
  t.next <- t.next + 1;
  Itbl.replace t.table tok Pending;
  Dk_obs.Metrics.incr m_minted;
  Dk_obs.Metrics.gauge_add t.pending 1;
  tok

let record_completion t tok =
  Dk_obs.Metrics.incr m_completed;
  Dk_obs.Metrics.gauge_add t.pending (-1);
  match t.clock with
  | Some now -> Flight.record_qtoken Flight.default ~now:(now ()) tok
  | None -> ()

let double_complete t tok =
  if t.audit then begin
    t.double_completes <- t.double_completes + 1;
    Dk_check.report Dk_check.Token_double_complete
      (Printf.sprintf
         "token %d completed twice: the second completion's wakeup would be \
          lost or delivered to the wrong waiter"
         tok)
  end
  else invalid_arg "Token.complete: token already completed"
  [@@hot.alloc "the double-complete diagnostic formats only on a misuse"]

let complete t tok result =
  match Itbl.find_opt t.table tok with
  | Some Pending ->
      Itbl.replace t.table tok (Done result);
      record_completion t tok
  | Some (Watched k) ->
      Itbl.remove t.table tok;
      if t.audit then Itbl.replace t.consumed tok ();
      record_completion t tok;
      k result
  | Some (Queued ws) ->
      Itbl.replace t.table tok (Done result);
      record_completion t tok;
      Queue.add tok ws.ready
  | Some (Done _) -> double_complete t tok
  | None ->
      if t.audit && Itbl.mem t.consumed tok then double_complete t tok
      else invalid_arg "Token.complete: unknown token"

let status t tok =
  match Itbl.find_opt t.table tok with
  | Some (Pending | Watched _ | Queued _) -> `Pending
  | Some (Done _) -> `Done
  | None -> `Unknown

(* A watched token is auto-redeemed by its callback; redeeming it by
   hand would double-deliver the completion (§4.4: exactly one wakeup
   per token). Enforced, not just documented. *)
let redeem_watched t tok =
  if t.audit then begin
    t.redeems_after_watch <- t.redeems_after_watch + 1;
    Dk_check.report Dk_check.Token_redeem_after_watch
      (Printf.sprintf
         "token %d is watched: its completion is delivered to the watch \
          callback and cannot also be waited on"
         tok);
    None
  end
  else
    invalid_arg
      "Token.redeem: token is watched; a watched token cannot also be waited \
       on"
  [@@hot.alloc "the redeem-after-watch diagnostic formats only on a misuse"]

let redeem t tok =
  match Itbl.find_opt t.table tok with
  | Some (Done r) ->
      Itbl.remove t.table tok;
      Dk_obs.Metrics.incr m_redeemed;
      Some r
  | Some (Watched _) -> redeem_watched t tok
  | Some (Pending | Queued _) -> None
  | None ->
      if t.audit && Itbl.mem t.consumed tok then redeem_watched t tok
      else None

let watch t tok k =
  match Itbl.find_opt t.table tok with
  (* A queued token may still be watched: the wait set simply never
     hears about it, exactly as a scanning waiter never saw a watched
     token's completion. *)
  | Some (Pending | Queued _) -> Itbl.replace t.table tok (Watched k)
  | Some (Done r) ->
      Itbl.remove t.table tok;
      if t.audit then Itbl.replace t.consumed tok ();
      k r
  | Some (Watched _) -> invalid_arg "Token.watch: already watched"
  | None -> invalid_arg "Token.watch: unknown token"

let outstanding t = Dk_obs.Metrics.gauge_value t.pending

let waitset () = { ready = Queue.create () }

let register t ws tok =
  match Itbl.find_opt t.table tok with
  | Some (Pending | Queued _) -> Itbl.replace t.table tok (Queued ws)
  | Some (Done _) -> Queue.add tok ws.ready
  (* Watched or unknown tokens never become ready: the waiter keeps
     polling without a hit. *)
  | Some (Watched _) | None -> ()

let unregister t ws tok =
  match Itbl.find_opt t.table tok with
  | Some (Queued ws') when ws' == ws -> Itbl.replace t.table tok Pending
  | _ -> ()

let rec take_ready t ws =
  match Queue.take_opt ws.ready with
  | None -> None
  | Some tok -> (
      (* Skip stale entries: a token already redeemed (or re-minted
         state changes) since it was enqueued must not produce a second
         wakeup. *)
      match Itbl.find_opt t.table tok with
      | Some (Done _) -> Some tok
      | _ -> take_ready t ws)

let audit t =
  let dangling =
    Itbl.fold_sorted
      (fun tok state acc ->
        match state with
        | Pending | Watched _ | Queued _ -> tok :: acc
        | Done _ -> acc)
      t.table []
    |> List.rev
  in
  {
    dangling;
    double_completes = t.double_completes;
    redeems_after_watch = t.redeems_after_watch;
  }

let report_dangling ?(context = "queue drain") t =
  let r = audit t in
  List.iter
    (fun tok ->
      Dk_check.report Dk_check.Token_dangling
        (Printf.sprintf
           "token %d still pending at %s: its completion will never arrive \
            and any waiter is stuck forever"
           tok context))
    r.dangling;
  List.length r.dangling
