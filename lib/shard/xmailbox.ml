(* Cross-shard mailbox: the ONLY sanctioned channel between shards.

   Shards are shared-nothing — each owns its qds, pools, TCP state and
   virtual clock — so the rare operation that must touch another
   shard's state (ownership migration, a KV request whose key lives
   elsewhere) travels as an explicit message. The mailbox is a bounded
   SPSC ring over the virtual clock: one producer (the source shard's
   poll loop), one consumer (the destination shard's), a fixed
   capacity, and a `try_send` that reports backpressure by returning
   [false] instead of blocking — the same contract as a hardware
   descriptor ring, which is why the ring itself is a
   [Dk_util.Bqueue].

   Delivery is an event on the DESTINATION engine at
   [max(dst.now, src.now + hop_ns)] ([Engine.at] clamps to now): a
   message can never arrive in the destination's past, so per-shard
   clocks stay independently monotonic. The delivery event pops the
   ring head rather than carrying its message, so FIFO order holds even
   when two deliveries land on the same timestamp. *)

module Engine = Dk_sim.Engine
module Metrics = Dk_obs.Metrics
module Bqueue = Dk_util.Bqueue

(* A cross-core cacheline handoff plus wakeup, not a NIC round trip. *)
let hop_ns = 500L

type 'a t = {
  src : int;
  dst : int;
  src_engine : Engine.t;
  dst_engine : Engine.t;
  ring : 'a Bqueue.t;
  mutable handler : ('a -> unit) option;
  stash : 'a Queue.t; (* delivered before a handler attached *)
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_backpressure : Metrics.counter;
  g_inflight : Metrics.gauge;
}

let create ~src ~dst ~src_engine ~dst_engine ?(capacity = 4096) () =
  if src = dst then invalid_arg "Xmailbox.create: src = dst";
  {
    src;
    dst;
    src_engine;
    dst_engine;
    ring = Bqueue.create capacity;
    handler = None;
    stash = Queue.create ();
    c_sent = Metrics.counter (Printf.sprintf "shard%d.core.mailbox.sent" src);
    c_delivered =
      Metrics.counter (Printf.sprintf "shard%d.core.mailbox.delivered" dst);
    c_backpressure =
      Metrics.counter (Printf.sprintf "shard%d.core.mailbox.backpressure" src);
    g_inflight =
      Metrics.gauge (Printf.sprintf "shard%d.core.mailbox.inflight" src);
  }

let src t = t.src
let dst t = t.dst
let capacity t = Bqueue.capacity t.ring
let in_flight t = Bqueue.length t.ring

let dispatch t msg =
  Metrics.gauge_add t.g_inflight (-1);
  Metrics.incr t.c_delivered;
  match t.handler with
  | Some f -> f msg
  | None -> Queue.add msg t.stash

let deliver t =
  match Bqueue.pop t.ring with
  | None -> () (* impossible: exactly one delivery event per send *)
  | Some msg -> dispatch t msg

let try_send t msg =
  if not (Bqueue.push t.ring msg) then begin
    Metrics.incr t.c_backpressure;
    false
  end
  else begin
    Metrics.incr t.c_sent;
    Metrics.gauge_add t.g_inflight 1;
    let due = Int64.add (Engine.now t.src_engine) hop_ns in
    let (_ : Engine.timer) = Engine.at t.dst_engine due (fun () -> deliver t) in
    true
  end

let set_on_recv t f =
  t.handler <- Some f;
  let rec drain () =
    match Queue.take_opt t.stash with
    | None -> ()
    | Some msg ->
        f msg;
        drain ()
  in
  drain ()
