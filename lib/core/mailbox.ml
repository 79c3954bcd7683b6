type t = {
  tokens : Token.t;
  ready : Types.op_result Queue.t;
  waiters : Types.qtoken Queue.t;
  mutable terminal : Types.error option;
}

let create tokens =
  {
    tokens;
    ready = Queue.create ();
    waiters = Queue.create ();
    terminal = None;
  }

(* Class-wide obs instruments (aggregated across mailboxes): the
   buffered gauge is the total depth of all ready queues, its
   high-water mark the worst backlog any run accumulated. *)
let m_delivered = Dk_obs.Metrics.counter "core.mailbox.delivered"
let g_buffered = Dk_obs.Metrics.gauge "core.mailbox.buffered"

let deliver t result =
  Dk_obs.Metrics.incr m_delivered;
  match Queue.take_opt t.waiters with
  | Some tok -> Token.complete t.tokens tok result
  | None ->
      Queue.add result t.ready;
      Dk_obs.Metrics.gauge_add g_buffered 1

let pop t tok =
  match Queue.take_opt t.ready with
  | Some result ->
      Dk_obs.Metrics.gauge_add g_buffered (-1);
      Token.complete t.tokens tok result
  | None -> (
      match t.terminal with
      | Some err -> Token.complete t.tokens tok (Types.Failed err)
      | None -> Queue.add tok t.waiters)

let fail t err =
  if t.terminal = None then begin
    t.terminal <- Some err;
    Queue.iter
      (fun tok -> Token.complete t.tokens tok (Types.Failed err))
      t.waiters;
    Queue.clear t.waiters
  end

let close t = fail t `Queue_closed
let waiting t = Queue.length t.waiters
