type stats = { delivered : int; lost : int; unrouted : int }

module Fault = Dk_fault.Fault
module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics
module Itbl = Dk_util.Itbl

(* Class-wide obs instruments (aggregated across fabrics); each fabric
   counts into its own instances of them. *)
let m_delivered = Metrics.counter "device.fabric.delivered"
let m_lost = Metrics.counter "device.fabric.lost"
let m_unrouted = Metrics.counter "device.fabric.unrouted"

let broadcast = 0xffffffffffff

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  fault : Fault.t;
  loss : float;
  jitter_ns : int64;
  rng : Dk_sim.Rng.t;
  nics : Nic.t Itbl.t;
  (* Per (src,dst) last scheduled arrival: wire FIFO. Two levels of
     int-keyed tables rather than one keyed by the (src,dst) pair:
     tuple keys allocate on every lookup and hash polymorphically
     (dk-hot: hot-poly), and two 48-bit MACs don't pack into one
     immediate int. *)
  last_arrival : int64 Itbl.t Itbl.t;
  (* MAC-sorted snapshot of [nics], rebuilt on attach: broadcast fan-out
     must not sort the live table once per frame (dk-hot:
     hot-complexity), and hash-order fan-out would perturb the event
     schedule run to run. *)
  mutable order : (int * Nic.t) array;
  delivered : Metrics.counter;
  lost : Metrics.counter;
  unrouted : Metrics.counter;
}

let create ~engine ~cost ?(fault = Fault.create ()) ?(loss = 0.0)
    ?(jitter_ns = 0L) ?(seed = 0x5eedL) () =
  {
    engine;
    cost;
    fault;
    loss;
    jitter_ns;
    rng = Dk_sim.Rng.create seed;
    nics = Itbl.create 8;
    last_arrival = Itbl.create 16;
    order = [||];
    delivered = Metrics.instance m_delivered;
    lost = Metrics.instance m_lost;
    unrouted = Metrics.instance m_unrouted;
  }

let deliver t ~src ~dst ~departed nic frame =
  (* Injected partition: the link is down, the frame dies at the egress
     port. Decided at departure time so the window is crisp. *)
  if Fault.fire t.fault Fault.Fabric_partition ~now:departed then
    Metrics.incr t.lost
  else begin
    let base = Dk_sim.Cost.wire_ns t.cost (String.length frame) in
    let delay =
      if Int64.compare t.jitter_ns 0L > 0 then
        Int64.add base
          (Int64.of_int
             (Dk_sim.Rng.int t.rng (Int64.to_int t.jitter_ns + 1)))
      else base
    in
    (* Injected reorder: push this frame past its successors. The FIFO
       clamp below must not see it, or successors would be pushed back
       too and the order would be preserved after all. *)
    let reorder =
      Fault.extra_delay t.fault Fault.Fabric_reorder ~now:departed
    in
    let delay = Int64.add delay reorder in
    (* Absolute arrival from the departure time; clamped monotonic per
       (src,dst) so the wire is FIFO (unless jitter or an injected
       reorder deliberately breaks it, in which case the clamp is
       skipped). *)
    let arrival = Int64.add departed delay in
    let arrival =
      if Int64.compare t.jitter_ns 0L > 0 || Int64.compare reorder 0L > 0 then
        arrival
      else begin
        let by_dst =
          match Itbl.find_opt t.last_arrival src with
          | Some h -> h
          | None ->
              let h = Itbl.create 8 in
              Itbl.add t.last_arrival src h;
              h
        in
        let floor =
          match Itbl.find_opt by_dst dst with Some f -> f | None -> 0L
        in
        let a = if Int64.compare arrival floor < 0 then floor else arrival in
        Itbl.replace by_dst dst a;
        a
      end
    in
    let arrive () =
      let now = Dk_sim.Engine.now t.engine in
      if t.loss > 0.0 && Dk_sim.Rng.bool t.rng t.loss then begin
        Metrics.incr t.lost;
        if Flight.start Flight.default ~now Flight.Drop then begin
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
      else if Fault.fire t.fault Fault.Fabric_drop ~now then
        Metrics.incr t.lost
      else begin
        let frame =
          match Fault.mangle t.fault Fault.Fabric_corrupt ~now frame with
          | Some corrupted -> corrupted
          | None -> frame
        in
        Metrics.incr t.delivered;
        Nic.receive nic frame
      end
    in
    ignore (Dk_sim.Engine.at t.engine arrival arrive);
    (* Injected duplicate: a second, independent delivery a magnitude
       later (it runs the loss/drop/corrupt gauntlet again). *)
    if Fault.fire t.fault Fault.Fabric_dup ~now:departed then
      ignore
        (Dk_sim.Engine.at t.engine
           (Int64.add arrival (Fault.magnitude t.fault Fault.Fabric_dup))
           arrive)
  end
  [@@hot] [@@hot.alloc
    "the per-frame arrival closure is the sim's wire: it carries the \
     frame across virtual time to the destination NIC"]

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
