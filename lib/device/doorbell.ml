(* The datapath's single MMIO chokepoint. Every tx/submission path
   (NIC tx ring, RDMA work queues, NVMe SQ) rings its doorbell through
   one of these, and nowhere else — the dk-lint `doorbell-site` rule
   rejects any other consumer of [Cost.pcie_doorbell].

   Coalescing contract: with [window = 0] (the default), [submit] rings
   and then runs the device work immediately — the virtual-time
   sequence is bit-identical to the historical ring-per-op path. With
   [window > 0], submissions stage and one flush event at
   [now + window] rings once for everything staged — the descriptor
   writes are plain cached stores; only the MMIO ring is deferred. *)

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  rings : Dk_obs.Metrics.counter; (* instance of the [name] counter *)
  mutable window : int64;
  staged : (unit -> unit) Queue.t;
  (* A flag, not an [Engine.timer]: [group] calls [flush] directly, so
     the flag can be clear while a window's flush event is still
     queued, and the next submission then opens a window of its own.
     A handle would see the old event queued and flush that submission
     at the old window's end instead. *)
  mutable flush_pending : bool;
  mutable grouping : bool;
}

let create ~engine ~cost ~name () =
  {
    engine;
    cost;
    rings = Dk_obs.Metrics.instance (Dk_obs.Metrics.counter name);
    window = cost.Dk_sim.Cost.tx_batch_window;
    staged = Queue.create ();
    flush_pending = false;
    grouping = false;
  }

let set_window t ns = t.window <- (if Int64.compare ns 0L < 0 then 0L else ns)
let window t = t.window
let rings t = Dk_obs.Metrics.value t.rings

let ring t =
  Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.pcie_doorbell;
  Dk_obs.Metrics.incr t.rings

(* Directly recursive: the drain runs once per flush on the MMIO
   chokepoint, so the old inner closure was a per-flush allocation
   (dk-hot: hot-alloc). *)
let rec run_staged t =
  match Queue.take_opt t.staged with
  | Some thunk ->
      thunk ();
      run_staged t
  | None -> ()

(* An empty stage never rings: a window in which nothing was submitted
   costs nothing. *)
let flush t =
  t.flush_pending <- false;
  if not (Queue.is_empty t.staged) then begin
    ring t;
    run_staged t
  end

let submit t thunk =
  if t.grouping then Queue.add thunk t.staged
  else if Int64.compare t.window 0L <= 0 then begin
    ring t;
    thunk ()
  end
  else begin
    Queue.add thunk t.staged;
    if not t.flush_pending then begin
      t.flush_pending <- true;
      ignore (Dk_sim.Engine.after t.engine t.window (fun () -> flush t))
    end
  end
  [@@hot.alloc
    "one flush-event closure per open window (first submission only), \
     amortized across everything the window coalesces"]

(* Explicit batch (the submit_many entry points): even at window 0 the
   group's submissions share one ring, flushed synchronously before
   [group] returns. At window > 0 the open window already coalesces.
   The grouping flag is reset by hand on both exits rather than via
   [Fun.protect], whose [~finally] closure would be a per-batch
   allocation. *)
let group t f =
  if Int64.compare t.window 0L > 0 then f ()
  else begin
    t.grouping <- true;
    match f () with
    | result ->
        t.grouping <- false;
        flush t;
        result
    | exception e ->
        t.grouping <- false;
        raise e
  end
