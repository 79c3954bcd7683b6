type stats = { delivered : int; lost : int; unrouted : int }

module Fault = Dk_fault.Fault
module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics
module Engine = Dk_sim.Engine
module Pool = Dk_util.Pool
module Itbl = Dk_util.Itbl

(* Class-wide obs instruments (aggregated across fabrics); each fabric
   counts into its own instances of them. *)
let m_delivered = Metrics.counter "device.fabric.delivered"
let m_lost = Metrics.counter "device.fabric.lost"
let m_unrouted = Metrics.counter "device.fabric.unrouted"

let broadcast = 0xffffffffffff

(* The wire hop of one frame to one destination: a mutable record made
   once per pool slot with its own timer, taken when the frame leaves
   its sender and released when the arrival fires. Each destination of
   a broadcast and each injected duplicate takes its own. A released
   descriptor keeps its last frame until it is taken again. *)
type arrival = {
  id : int;
  mutable frame : string;
  mutable src : int;
  mutable dst : int;
  mutable nic : Nic.t; (* the destination *)
  timer : Engine.timer;
}

type t = {
  engine : Engine.t;
  cost : Dk_sim.Cost.t;
  fault : Fault.t;
  loss : float;
  jitter_ns : int;
  rng : Dk_sim.Rng.t;
  nics : Nic.t Itbl.t;
  (* Per (src,dst) last scheduled arrival, int ns: wire FIFO. Two
     levels of int-keyed tables rather than one keyed by the (src,dst)
     pair: tuple keys allocate on every lookup and hash polymorphically
     (dk-hot: hot-poly), and two 48-bit MACs don't pack into one
     immediate int. *)
  last_arrival : int Itbl.t Itbl.t;
  (* MAC-sorted snapshot of [nics], rebuilt on attach: broadcast fan-out
     must not sort the live table once per frame (dk-hot:
     hot-complexity), and hash-order fan-out would perturb the event
     schedule run to run. *)
  mutable order : (int * Nic.t) array;
  arrivals : (t, arrival) Pool.t;
  delivered : Metrics.counter;
  lost : Metrics.counter;
  unrouted : Metrics.counter;
}

(* The arrival at the destination NIC, run by a descriptor's timer (a
   hot root of its own: dk-hot cannot follow a timer). The descriptor
   is freed and its fields copied out first: the receive may take
   another. *)
let arrive t id =
  let d = Pool.release t.arrivals id in
  let frame = d.frame and src = d.src and dst = d.dst and nic = d.nic in
  let now = Engine.now_ns t.engine in
  if t.loss > 0.0 && Dk_sim.Rng.bool t.rng t.loss then begin
    Metrics.incr t.lost;
    if Flight.start Flight.default ~now:(Engine.now t.engine) Flight.Drop
    then begin
      Flight.add_string Flight.default "fabric lost frame ";
      Flight.add_hex Flight.default src;
      Flight.add_string Flight.default "->";
      Flight.add_hex Flight.default dst;
      Flight.add_string Flight.default " (";
      Flight.add_int Flight.default (String.length frame);
      Flight.add_string Flight.default "B)";
      Flight.commit Flight.default
    end
  end
  else if Fault.fire t.fault Fault.Fabric_drop ~now then Metrics.incr t.lost
  else begin
    let frame =
      match Fault.mangle t.fault Fault.Fabric_corrupt ~now frame with
      | Some corrupted -> corrupted
      | None -> frame
    in
    Metrics.incr t.delivered;
    Nic.receive nic frame
  end
  [@@hot]

(* A fabric carries frames only between attached NICs, so [order] is
   not empty when its pool first grows; the NIC a descriptor starts
   with is overwritten when it is taken. *)
let arrival_descriptor t id =
  {
    id;
    frame = "";
    src = 0;
    dst = 0;
    nic = snd t.order.(0);
    timer = Engine.timer t.engine (fun () -> arrive t id);
  }

let create ~engine ~cost ?(fault = Fault.create ()) ?(loss = 0.0)
    ?(jitter_ns = 0L) ?(seed = 0x5eedL) () =
  {
    engine;
    cost;
    fault;
    loss;
    jitter_ns = Int64.to_int jitter_ns;
    rng = Dk_sim.Rng.create seed;
    nics = Itbl.create 8;
    last_arrival = Itbl.create 16;
    order = [||];
    arrivals = Pool.create arrival_descriptor;
    delivered = Metrics.instance m_delivered;
    lost = Metrics.instance m_lost;
    unrouted = Metrics.instance m_unrouted;
  }

let arrivals_from t src =
  let h = Itbl.create 8 in
  Itbl.add t.last_arrival src h;
  h
  [@@hot.alloc "one table per sending MAC, made at its first frame"]

(* Clamp [arrival] to the last one scheduled from [src] to [dst], so the
   wire is FIFO. *)
let fifo t ~src ~dst arrival =
  let by_dst =
    match Itbl.find t.last_arrival src with
    | h -> h
    | exception Not_found -> arrivals_from t src
  in
  let floor =
    match Itbl.find by_dst dst with f -> f | exception Not_found -> 0
  in
  let a = if arrival < floor then floor else arrival in
  Itbl.replace by_dst dst a;
  a

(* Schedule one delivery on a descriptor of its own. *)
let send_at t ~src ~dst nic frame arrival =
  let d = Pool.take t.arrivals t in
  d.frame <- frame;
  d.src <- src;
  d.dst <- dst;
  (* Most often the same NIC as last time: skip the write barrier. *)
  if d.nic != nic then d.nic <- nic;
  Engine.rearm_at d.timer arrival

let deliver t ~src ~dst ~departed nic frame =
  (* Injected partition: the link is down, the frame dies at the egress
     port. Decided at departure time so the window is crisp. *)
  if Fault.fire t.fault Fault.Fabric_partition ~now:departed then
    Metrics.incr t.lost
  else begin
    let base = Dk_sim.Cost.wire_ns t.cost (String.length frame) in
    let delay =
      if t.jitter_ns > 0 then base + Dk_sim.Rng.int t.rng (t.jitter_ns + 1)
      else base
    in
    (* Injected reorder: push this frame past its successors. The FIFO
       clamp below must not see it, or successors would be pushed back
       too and the order would be preserved after all. *)
    let reorder =
      Fault.extra_delay t.fault Fault.Fabric_reorder ~now:departed
    in
    (* Absolute arrival from the departure time; clamped monotonic per
       (src,dst) so the wire is FIFO (unless jitter or an injected
       reorder deliberately breaks it, in which case the clamp is
       skipped). *)
    let arrival = departed + delay + reorder in
    let arrival =
      if t.jitter_ns > 0 || reorder > 0 then arrival
      else fifo t ~src ~dst arrival
    in
    send_at t ~src ~dst nic frame arrival;
    (* Injected duplicate: a second, independent delivery a magnitude
       later (it runs the loss/drop/corrupt gauntlet again). *)
    if Fault.fire t.fault Fault.Fabric_dup ~now:departed then
      send_at t ~src ~dst nic frame
        (arrival + Int64.to_int (Fault.magnitude t.fault Fault.Fabric_dup))
  end
  [@@hot]

(* Index walk over the attach-time sorted snapshot: per-frame fan-out
   touches no list and sorts nothing. *)
let rec bcast t ~src ~departed frame i =
  if i < Array.length t.order then begin
    (let mac, nic = t.order.(i) in
     if mac <> src then deliver t ~src ~dst:mac ~departed nic frame);
    bcast t ~src ~departed frame (i + 1)
  end

let send t ~src ~dst ~departed frame =
  if dst = broadcast then bcast t ~src ~departed frame 0
  else
    match Itbl.find_opt t.nics dst with
    | Some nic -> deliver t ~src ~dst ~departed nic frame
    | None -> Metrics.incr t.unrouted
  [@@hot]

let attach t nic =
  let mac = Nic.mac nic in
  if Itbl.mem t.nics mac then invalid_arg "Fabric.attach: duplicate MAC";
  Itbl.replace t.nics mac nic;
  t.order <-
    Array.of_list
      (List.rev
         (Itbl.fold_sorted (fun mac nic acc -> (mac, nic) :: acc) t.nics []));
  Nic.set_uplink nic (fun ~src ~dst ~departed frame ->
      send t ~src ~dst ~departed frame)

let stats t =
  {
    delivered = Metrics.value t.delivered;
    lost = Metrics.value t.lost;
    unrouted = Metrics.value t.unrouted;
  }
