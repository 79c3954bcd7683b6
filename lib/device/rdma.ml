type status =
  [ `Ok
  | `Not_registered
  | `Rnr
  | `Too_long
  | `Not_connected
  | `Rkey
  | `Qp_broken ]

module Fault = Dk_fault.Fault

type wc = {
  wr_id : int;
  status : status;
  len : int;
  buffer : Dk_mem.Buffer.t option;
}

type stats = {
  sends : int;
  recvs : int;
  rnr_events : int;
  registration_failures : int;
}

type qp = {
  nic : t;
  mutable peer : qp option;
  recv_queue : (int * Dk_mem.Buffer.t) Queue.t; (* posted receives *)
  send_cq : wc Queue.t;
  recv_cq : wc Queue.t;
  mutable recv_notify : unit -> unit;
  mutable send_notify : unit -> unit;
  mutable window : Dk_mem.Buffer.t option; (* remotely accessible memory *)
  (* last scheduled remote-arrival time: RC ordering on the QP *)
  mutable next_arrival : int64;
}

and t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  fault : Fault.t;
  db : Doorbell.t;
  mutable is_registered : int option -> bool;
  mutable sends : int;
  mutable recvs : int;
  mutable rnr_events : int;
  mutable registration_failures : int;
}

let create ~engine ~cost ?(fault = Fault.create ()) ?(is_registered = fun _ -> false)
    () =
  {
    engine;
    cost;
    fault;
    db = Doorbell.create ~engine ~cost ~name:"rdma.tx.doorbells" ();
    is_registered;
    sends = 0;
    recvs = 0;
    rnr_events = 0;
    registration_failures = 0;
  }

let set_tx_window t ns = Doorbell.set_window t.db ns
let tx_doorbells t = Doorbell.rings t.db

let set_mr_check t f = t.is_registered <- f

let create_qp nic =
  {
    nic;
    peer = None;
    recv_queue = Queue.create ();
    send_cq = Queue.create ();
    recv_cq = Queue.create ();
    recv_notify = (fun () -> ());
    send_notify = (fun () -> ());
    window = None;
    next_arrival = 0L;
  }

let connect a b =
  if a.peer <> None || b.peer <> None then
    invalid_arg "Rdma.connect: queue pair already connected";
  a.peer <- Some b;
  b.peer <- Some a

(* Injected QP break, checked once per post: sever both ends so every
   later post sees [`Not_connected], and fail this one [`Qp_broken]. *)
let qp_breaks qp peer ~now =
  if Fault.fire qp.nic.fault Fault.Rdma_qp_break ~now then begin
    peer.peer <- None;
    qp.peer <- None;
    true
  end
  else false

let post_recv qp ~wr_id buf =
  Dk_mem.Buffer.io_hold buf;
  Queue.add (wr_id, buf) qp.recv_queue
  [@@hot.alloc "the (wr_id, buffer) pair is the posted-receive ring entry"]

(* Direct recursion over the segment list: [List.for_all] would close
   over the NIC once per registration check, i.e. once per post. *)
let rec segs_registered nic = function
  | [] -> true
  | b :: rest ->
      nic.is_registered (Dk_mem.Buffer.region_id b) && segs_registered nic rest

let sga_registered nic sga = segs_registered nic (Dk_mem.Sga.segments sga)

(* One round-trip-ish device+wire delay for a message of [len] bytes. *)
let transit_ns nic len =
  Int64.add nic.cost.Dk_sim.Cost.rdma_nic_proc
    (Int64.of_int
       (Dk_sim.Cost.dma_ns nic.cost len + Dk_sim.Cost.wire_ns nic.cost len))

let complete_send qp wc =
  Queue.add wc qp.send_cq;
  qp.send_notify ()

(* Absolute, per-QP-monotonic arrival time for a message of [len]
   bytes: RC transports deliver strictly in order even when the
   simulation clock was consumed past the posting instant. *)
let arrival_time qp ~len =
  let nic = qp.nic in
  let a = Int64.add (Dk_sim.Engine.now nic.engine) (transit_ns nic len) in
  let a = if Int64.compare a qp.next_arrival < 0 then qp.next_arrival else a in
  qp.next_arrival <- a;
  a

let post_send qp ~wr_id sga =
  let nic = qp.nic in
  let len = Dk_mem.Sga.length sga in
  match qp.peer with
  | None ->
      complete_send qp { wr_id; status = `Not_connected; len; buffer = None }
  | Some peer ->
      if qp_breaks qp peer ~now:(Dk_sim.Engine.now_ns nic.engine) then
        complete_send qp { wr_id; status = `Qp_broken; len; buffer = None }
      else if not (sga_registered nic sga) then begin
        nic.registration_failures <- nic.registration_failures + 1;
        complete_send qp { wr_id; status = `Not_registered; len; buffer = None }
      end
      else
        (* Validation already passed at post time; everything from the
           doorbell on — hold, serialisation, per-QP in-order arrival —
           runs when the (possibly coalesced) ring fires. *)
        Doorbell.submit nic.db (fun () ->
        Dk_mem.Sga.io_hold sga;
        nic.sends <- nic.sends + 1;
        let payload = Dk_mem.Sga.to_string sga in
        let[@hot.alloc
             "completion events and RNR/ACK bounce closures are the \
              sim's wire"] deliver () =
          Dk_mem.Sga.io_release sga;
          match Queue.take_opt peer.recv_queue with
          | None ->
              (* Receiver not ready: reliable transport reports the
                 failure back to the sender (simplified RNR-NAK). *)
              nic.rnr_events <- nic.rnr_events + 1;
              let back = transit_ns nic 0 in
              ignore
                (Dk_sim.Engine.after nic.engine back (fun () ->
                     complete_send qp
                       { wr_id; status = `Rnr; len; buffer = None }))
          | Some (recv_wr_id, buf) ->
              if Dk_mem.Buffer.length buf < len then begin
                Dk_mem.Buffer.io_release buf;
                Queue.add
                  { wr_id = recv_wr_id; status = `Too_long; len; buffer = Some buf }
                  peer.recv_cq;
                peer.recv_notify ();
                let back = transit_ns nic 0 in
                ignore
                  (Dk_sim.Engine.after nic.engine back (fun () ->
                       complete_send qp
                         { wr_id; status = `Too_long; len; buffer = None }))
              end
              else begin
                (* Device DMA into the posted buffer: no CPU time. *)
                Dk_mem.Buffer.blit_from_string payload 0 buf 0 len;
                Dk_mem.Buffer.io_release buf;
                (peer.nic).recvs <- (peer.nic).recvs + 1;
                Queue.add
                  { wr_id = recv_wr_id; status = `Ok; len; buffer = Some buf }
                  peer.recv_cq;
                peer.recv_notify ();
                let ack = (peer.nic).cost.Dk_sim.Cost.wire_latency in
                ignore
                  (Dk_sim.Engine.after nic.engine ack (fun () ->
                       complete_send qp { wr_id; status = `Ok; len; buffer = None }))
              end
        in
        ignore (Dk_sim.Engine.at nic.engine (arrival_time qp ~len) deliver))
  [@@hot.alloc
    "work-completion records are the verbs API's return surface; the \
     staged thunk and arrival events are the sim's wire"]

let rec post_each qp = function
  | [] -> ()
  | (wr_id, sga) :: rest ->
      post_send qp ~wr_id sga;
      post_each qp rest

let post_send_many qp sends =
  Doorbell.group qp.nic.db (fun () -> post_each qp sends)
  [@@hot.alloc "one group thunk per batch, amortized across its work requests"]

(* ---- one-sided operations (§5.1) ---- *)

let expose_window qp buf =
  if qp.nic.is_registered (Dk_mem.Buffer.region_id buf) then begin
    Dk_mem.Buffer.io_hold buf;
    (match qp.window with Some old -> Dk_mem.Buffer.io_release old | None -> ());
    qp.window <- Some buf;
    Ok ()
  end
  else Error `Not_registered

(* Validate a one-sided target range against the peer's window. *)
let window_range peer ~remote_off ~len =
  match peer.window with
  | Some w when remote_off >= 0 && len >= 0 && remote_off + len <= Dk_mem.Buffer.length w ->
      Some w
  | Some _ | None -> None

let post_read qp ~wr_id ~remote_off ~len dst =
  let nic = qp.nic in
  match qp.peer with
  | None -> complete_send qp { wr_id; status = `Not_connected; len; buffer = None }
  | Some peer ->
      if qp_breaks qp peer ~now:(Dk_sim.Engine.now_ns nic.engine) then
        complete_send qp { wr_id; status = `Qp_broken; len; buffer = None }
      else if not (nic.is_registered (Dk_mem.Buffer.region_id dst))
              || Dk_mem.Buffer.length dst < len
      then begin
        nic.registration_failures <- nic.registration_failures + 1;
        complete_send qp { wr_id; status = `Not_registered; len; buffer = None }
      end
      else
        Doorbell.submit nic.db (fun () ->
            Dk_mem.Buffer.io_hold dst;
            nic.sends <- nic.sends + 1;
            (* request travels to the peer NIC, data comes back: one RTT
               of wire plus remote NIC processing — and zero remote
               CPU. *)
            let rtt = Int64.add (transit_ns nic 16) (transit_ns nic len) in
            ignore
              (Dk_sim.Engine.after nic.engine rtt (fun () ->
                   match window_range peer ~remote_off ~len with
                   | Some w ->
                       Dk_mem.Buffer.blit w remote_off dst 0 len;
                       Dk_mem.Buffer.io_release dst;
                       complete_send qp { wr_id; status = `Ok; len; buffer = None }
                   | None ->
                       Dk_mem.Buffer.io_release dst;
                       complete_send qp
                         { wr_id; status = `Rkey; len; buffer = None })))
  [@@hot.alloc
    "work-completion records are the verbs API's return surface; the \
     staged thunk and RTT event are the sim's wire"]

let post_write qp ~wr_id ~remote_off sga =
  let nic = qp.nic in
  let len = Dk_mem.Sga.length sga in
  match qp.peer with
  | None -> complete_send qp { wr_id; status = `Not_connected; len; buffer = None }
  | Some peer ->
      if qp_breaks qp peer ~now:(Dk_sim.Engine.now_ns nic.engine) then
        complete_send qp { wr_id; status = `Qp_broken; len; buffer = None }
      else if not (sga_registered nic sga) then begin
        nic.registration_failures <- nic.registration_failures + 1;
        complete_send qp { wr_id; status = `Not_registered; len; buffer = None }
      end
      else
        Doorbell.submit nic.db (fun () ->
            Dk_mem.Sga.io_hold sga;
            nic.sends <- nic.sends + 1;
            let payload = Dk_mem.Sga.to_string sga in
            let when_ = arrival_time qp ~len in
            ignore
              (Dk_sim.Engine.at nic.engine when_ (fun () ->
                   Dk_mem.Sga.io_release sga;
                   match window_range peer ~remote_off ~len with
                   | Some w ->
                       Dk_mem.Buffer.blit_from_string payload 0 w remote_off len;
                       let ack = transit_ns nic 0 in
                       ignore
                         (Dk_sim.Engine.after nic.engine ack (fun () ->
                              complete_send qp
                                { wr_id; status = `Ok; len; buffer = None }))
                   | None ->
                       let back = transit_ns nic 0 in
                       ignore
                         (Dk_sim.Engine.after nic.engine back (fun () ->
                              complete_send qp
                                { wr_id; status = `Rkey; len; buffer = None })))))
  [@@hot.alloc
    "work-completion records are the verbs API's return surface; the \
     staged thunk and arrival events are the sim's wire"]

let poll_send_cq qp = Queue.take_opt qp.send_cq
let poll_recv_cq qp = Queue.take_opt qp.recv_cq
let recv_posted qp = Queue.length qp.recv_queue
let set_recv_notify qp f = qp.recv_notify <- f
let set_send_notify qp f = qp.send_notify <- f

let stats t =
  {
    sends = t.sends;
    recvs = t.recvs;
    rnr_events = t.rnr_events;
    registration_failures = t.registration_failures;
  }
