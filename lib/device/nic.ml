type stats = {
  tx_frames : int;
  tx_bytes : int;
  tx_rejected : int;
  rx_frames : int;
  rx_bytes : int;
  rx_dropped : int;
  rx_filtered : int;
  rx_responded : int;
}

module Fault = Dk_fault.Fault
module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics
module Engine = Dk_sim.Engine
module Pool = Dk_util.Pool

(* Class-wide obs instruments (aggregated across NICs); each NIC counts
   into its own instances of them, and the flight recorder entries
   carry the MAC to tell instances apart. *)
let m_tx_frames = Metrics.counter "device.nic.tx_frames"
let m_tx_bytes = Metrics.counter "device.nic.tx_bytes"
let m_tx_rejected = Metrics.counter "device.nic.tx_rejected"
let m_rx_frames = Metrics.counter "device.nic.rx_frames"
let m_rx_bytes = Metrics.counter "device.nic.rx_bytes"
let m_rx_dropped = Metrics.counter "device.nic.rx_dropped"
let m_rx_filtered = Metrics.counter "device.nic.rx_filtered"
let g_rx_pending = Metrics.gauge "device.nic.rx_pending"
let g_tx_inflight = Metrics.gauge "device.nic.tx_inflight"

let no_lookup (_ : string) : string option = None

(* The NIC's descriptors are mutable records, made once per pool slot
   with their own timer, taken when a frame enters a hop and released
   when the timer fires: a frame's hops re-arm them and build no
   closure or event. A released descriptor keeps its last frame until
   it is taken again.

   A tx descriptor is the DMA hop: taken by [transmit] (or the respond
   path), armed when its doorbell work [submit] runs, released at DMA
   completion. An rx descriptor is the on-NIC pipeline's latency. *)
type txd = {
  id : int;
  mutable frame : string;
  mutable dst : int;
  mutable departed : int; (* absolute DMA completion, int ns *)
  timer : Engine.timer;
  submit : unit -> unit;
}

type rxd = { rx_id : int; mutable rx_frame : string; rx_timer : Engine.timer }

type t = {
  engine : Engine.t;
  cost : Dk_sim.Cost.t;
  fault : Fault.t;
  mac : int;
  mutable ip : int; (* the host stack's; -1 (no address) until it says *)
  programmable : bool;
  db : Doorbell.t;
  ctrl_db : Doorbell.t;
  rxq : string Dk_util.Bqueue.t;
  tx_capacity : int;
  tx_inflight : Metrics.gauge;
  mutable rx_pipeline : Prog.pipeline;
  mutable table : Table.t option;
  mutable lookup_fn : string -> string option;
  mutable uplink : (src:int -> dst:int -> departed:int -> string -> unit) option;
  mutable rx_notify : unit -> unit;
  txds : (t, txd) Pool.t;
  rxds : (t, rxd) Pool.t;
  tx_frames : Metrics.counter;
  tx_bytes : Metrics.counter;
  tx_rejected : Metrics.counter;
  rx_frames : Metrics.counter;
  rx_bytes : Metrics.counter;
  rx_dropped : Metrics.counter;
  rx_filtered : Metrics.counter;
  mutable rx_responded : int;
}

(* ---- the tx hop ----
   [tx_start] is the doorbell work of a tx descriptor: DMA then uplink.
   [transmit] reaches it through the doorbell; the device-side respond
   path calls it directly — a NIC answering from its own table rings no
   host doorbell (that is the point of the offload). A hop's body runs
   from a descriptor's closure or timer, calls dk-hot cannot follow, so
   each is a hot root of its own ([@@hot]). *)

let tx_start t d =
  Metrics.gauge_add t.tx_inflight 1;
  d.departed <-
    Engine.now_ns t.engine + Dk_sim.Cost.dma_ns t.cost (String.length d.frame);
  Engine.rearm_at d.timer d.departed
  [@@hot]

(* DMA completion. The descriptor is freed and its fields copied out
   first: the uplink may take another. *)
let dma_done t id =
  let d = Pool.release t.txds id in
  let frame = d.frame and dst = d.dst and departed = d.departed in
  Metrics.gauge_add t.tx_inflight (-1);
  Metrics.incr t.tx_frames;
  Metrics.add t.tx_bytes (String.length frame);
  (* Injected tx drop: the DMA completed (the host paid for it) but the
     frame dies at the PHY and never reaches the fabric. *)
  if Fault.fire t.fault Fault.Nic_tx_drop ~now:(Engine.now_ns t.engine) then ()
  else
    match t.uplink with
    | Some send -> send ~src:t.mac ~dst ~departed frame
    | None -> ()
  [@@hot]

let tx_descriptor t id =
  let timer = Engine.timer t.engine (fun () -> dma_done t id) in
  let rec d =
    {
      id;
      frame = "";
      dst = 0;
      departed = 0;
      timer;
      submit = (fun () -> tx_start t d);
    }
  in
  d

let take_tx t ~dst frame =
  let d = Pool.take t.txds t in
  d.frame <- frame;
  d.dst <- dst;
  d

let mac t = t.mac
let set_ip t ip = t.ip <- ip
let programmable t = t.programmable

let set_rx_pipeline t p =
  if t.programmable then begin
    t.rx_pipeline <- p;
    Ok ()
  end
  else Error `Not_programmable

let offload_enable t ?policy ?obs_prefix ~capacity ~max_value () =
  if not t.programmable then Error `Not_programmable
  else
    match t.table with
    | Some tbl -> Ok tbl
    | None ->
        let tbl = Table.create ?policy ?obs_prefix ~capacity ~max_value () in
        t.table <- Some tbl;
        Ok tbl

let offload_table t = t.table

(* ---- host -> device control queue ----
   Table writes from the host travel over their own doorbell
   ([nic.ctrl.doorbells], zero window: see [create]), so a control op
   has completed on the device before the submitting call returns —
   the ordering the no-stale-GET invariant rests on. *)

let ctrl t f =
  match t.table with
  | None -> None
  | Some tbl ->
      let out = ref None in
      Doorbell.submit t.ctrl_db (fun () -> out := Some (f tbl));
      !out
  [@@hot.alloc
    "one result cell + thunk per control-queue op; the kv SET/DEL path \
     pays it alongside its doorbell, never the per-frame rx path"]

let ctrl_insert t k v =
  match ctrl t (fun tbl -> Table.insert tbl k v) with
  | Some r -> r
  | None -> Error `Rejected
  [@@hot.alloc "control-queue closure (see ctrl)"]

let ctrl_update t k v =
  match ctrl t (fun tbl -> Table.update tbl k v) with
  | Some r -> r
  | None -> false
  [@@hot.alloc "control-queue closure (see ctrl)"]

let ctrl_invalidate t k =
  match ctrl t (fun tbl -> Table.invalidate tbl k) with
  | Some r -> r
  | None -> false
  [@@hot.alloc "control-queue closure (see ctrl)"]

(* Open a flight entry whose label starts "nic <mac>"; the caller
   appends the rest and commits. *)
let flight_start t kind =
  Flight.start Flight.default ~now:(Engine.now t.engine) kind
  && begin
       Flight.add_string Flight.default "nic ";
       Flight.add_hex Flight.default t.mac;
       true
     end

let tx_ring_full t =
  Metrics.incr t.tx_rejected;
  if flight_start t Flight.Drop then begin
    Flight.add_string Flight.default " tx ring full (";
    Flight.add_int Flight.default (Metrics.gauge_value t.tx_inflight);
    Flight.add_string Flight.default " in flight)";
    Flight.commit Flight.default
  end

let tx_full t = Metrics.gauge_value t.tx_inflight >= t.tx_capacity

let transmit t ~dst frame =
  if tx_full t then begin
    tx_ring_full t;
    false
  end
  else begin
    (* The CPU pays only for the doorbell (via the coalescing stage);
       the DMA engine does the rest. The departure time is fixed when
       the doorbell fires (absolute), so that late event execution —
       the clock having been consumed past this point — cannot reorder
       frames on the wire. Under a coalescing window the ring-capacity
       check above sees the pre-flush inflight count. *)
    Doorbell.submit t.db (take_tx t ~dst frame).submit;
    true
  end

(* Device-originated tx (pipeline [Respond]): same ring-capacity check,
   DMA model and tx fault site as [transmit], but no doorbell — no host
   CPU is involved. *)
let device_transmit t ~dst frame =
  if tx_full t then begin
    tx_ring_full t;
    false
  end
  else begin
    tx_start t (take_tx t ~dst frame);
    true
  end

let rec transmit_count t ~dst frames acc =
  match frames with
  | [] -> acc
  | frame :: rest ->
      transmit_count t ~dst rest (if transmit t ~dst frame then acc + 1 else acc)

let transmit_many t ~dst frames =
  Doorbell.group t.db (fun () -> transmit_count t ~dst frames 0)
  [@@hot.alloc "one group thunk per batch, amortized across its frames"]

let set_tx_window t ns = Doorbell.set_window t.db ns
let tx_doorbells t = Doorbell.rings t.db

let enqueue_rx t frame =
  if Dk_util.Bqueue.push t.rxq frame then begin
    Metrics.incr t.rx_frames;
    Metrics.add t.rx_bytes (String.length frame);
    Metrics.gauge_add g_rx_pending 1;
    Flight.record_nic_rx Flight.default ~now:(Engine.now t.engine)
      ~mac:t.mac ~len:(String.length frame)
      ~ring:(Dk_util.Bqueue.length t.rxq);
    t.rx_notify ()
  end
  else begin
    Metrics.incr t.rx_dropped;
    if flight_start t Flight.Drop then begin
      Flight.add_string Flight.default " rx ring full, frame dropped (";
      Flight.add_int Flight.default (String.length frame);
      Flight.add_string Flight.default "B)";
      Flight.commit Flight.default
    end
  end

(* A [Responded] verdict is re-checked against the raw frame
   ([Frame.udp_reply] runs the host stack's header checks and its
   addressing rule): a corrupt or misaddressed frame that reached a
   table hit anyway falls through to the host, whose stack will reject
   it — the device never answers a frame its host would not take. *)
let process_rx t frame =
  match Prog.eval_pipeline ~lookup:t.lookup_fn t.rx_pipeline frame with
  | Prog.Deliver frame -> enqueue_rx t frame
  | Prog.Dropped -> Metrics.incr t.rx_filtered
  | Prog.Responded payload -> (
      match
        Dk_wire.Frame.udp_reply ~self_mac:t.mac ~self_ip:t.ip ~request:frame
          ~payload
      with
      | Some (dst, reply) ->
          t.rx_responded <- t.rx_responded + 1;
          ignore (device_transmit t ~dst reply)
      | None -> enqueue_rx t frame)

(* The pipeline deferral's end. The descriptor is freed and its frame
   copied out first: the respond path may take a tx descriptor, and
   the host's poll may run another receive. *)
let prog_done t id =
  let frame = (Pool.release t.rxds id).rx_frame in
  process_rx t frame
  [@@hot]

let rx_descriptor t rx_id =
  {
    rx_id;
    rx_frame = "";
    rx_timer = Engine.timer t.engine (fun () -> prog_done t rx_id);
  }

let create ~engine ~cost ?(fault = Fault.create ()) ~mac ?(rx_capacity = 1024)
    ?(tx_capacity = 1024) ?(programmable = false) () =
  let ctrl_db = Doorbell.create ~engine ~cost ~name:"nic.ctrl.doorbells" () in
  (* The control queue is a correctness channel (SET invalidations ride
     it): it never coalesces, so a submitted op completes synchronously
     before the submitting host call returns. *)
  Doorbell.set_window ctrl_db 0L;
  let t =
    {
      engine;
      cost;
      fault;
      mac;
      ip = -1;
      programmable;
      db = Doorbell.create ~engine ~cost ~name:"nic.tx.doorbells" ();
      ctrl_db;
      rxq = Dk_util.Bqueue.create rx_capacity;
      tx_capacity;
      tx_inflight = Metrics.gauge_instance g_tx_inflight;
      rx_pipeline = [];
      table = None;
      lookup_fn = no_lookup;
      uplink = None;
      rx_notify = (fun () -> ());
      txds = Pool.create tx_descriptor;
      rxds = Pool.create rx_descriptor;
      tx_frames = Metrics.instance m_tx_frames;
      tx_bytes = Metrics.instance m_tx_bytes;
      tx_rejected = Metrics.instance m_tx_rejected;
      rx_frames = Metrics.instance m_rx_frames;
      rx_bytes = Metrics.instance m_rx_bytes;
      rx_dropped = Metrics.instance m_rx_dropped;
      rx_filtered = Metrics.instance m_rx_filtered;
      rx_responded = 0;
    }
  in
  (* One closure per NIC, built here rather than per frame. *)
  t.lookup_fn <-
    (fun k -> match t.table with Some tbl -> Table.lookup tbl k | None -> None);
  t

let receive t frame =
  let now = Engine.now_ns t.engine in
  (* Fault hooks sit at the wire edge, before any on-NIC program: a
     dropped frame never reaches the pipeline, a corrupted one is what
     the pipeline (and the host checksum) sees. *)
  if Fault.fire t.fault Fault.Nic_rx_drop ~now then Metrics.incr t.rx_dropped
  else begin
    let frame =
      match Fault.mangle t.fault Fault.Nic_rx_corrupt ~now frame with
      | Some corrupted -> corrupted
      | None -> frame
    in
    let copies = if Fault.fire t.fault Fault.Nic_rx_dup ~now then 2 else 1 in
    for _ = 1 to copies do
      match t.rx_pipeline with
      | [] -> enqueue_rx t frame
      | p ->
          (* Pipeline latency scales with the statically-priced
             footprint: one program element per 64 touched bytes, all
             on the device clock — no host CPU. *)
          let elems =
            1 + (Prog.pipeline_footprint p (String.length frame) / 64)
          in
          let d = Pool.take t.rxds t in
          d.rx_frame <- frame;
          Engine.rearm_at d.rx_timer
            (Engine.now_ns t.engine
            + (Int64.to_int t.cost.Dk_sim.Cost.device_prog_per_elem * elems))
    done
  end

let poll_rx t =
  match Dk_util.Bqueue.pop t.rxq with
  | Some _ as hit ->
      Metrics.gauge_add g_rx_pending (-1);
      hit
  | None -> None

let stats t =
  {
    tx_frames = Metrics.value t.tx_frames;
    tx_bytes = Metrics.value t.tx_bytes;
    tx_rejected = Metrics.value t.tx_rejected;
    rx_frames = Metrics.value t.rx_frames;
    rx_bytes = Metrics.value t.rx_bytes;
    rx_dropped = Metrics.value t.rx_dropped;
    rx_filtered = Metrics.value t.rx_filtered;
    rx_responded = t.rx_responded;
  }

let set_uplink t f = t.uplink <- Some f
let set_rx_notify t f = t.rx_notify <- f
