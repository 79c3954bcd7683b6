type status = [ `Ok | `Bad_lba | `Io_error ]

module Fault = Dk_fault.Fault
module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics

type completion = { wr_id : int; status : status; data : string option }

type stats = { reads : int; writes : int; rejected : int }

(* Class-wide obs instruments (aggregated across block devices); each
   device counts into its own instances of the first four. The latency
   histogram measures submit-to-completion in virtual ns. *)
let m_reads = Metrics.counter "device.block.reads"
let m_writes = Metrics.counter "device.block.writes"
let m_rejected = Metrics.counter "device.block.rejected"
let g_inflight = Metrics.gauge "device.block.sq_inflight"
let h_latency = Metrics.hist "device.block.sq_latency"

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  fault : Fault.t;
  db : Doorbell.t;
  block_size : int;
  block_count : int;
  sq_depth : int;
  programmable : bool;
  mutable write_prog : Prog.map option;
  mutable read_prog : Prog.map option;
  store : string Dk_util.Itbl.t; (* lba -> block contents *)
  cq : completion Queue.t;
  mutable cq_notify : unit -> unit;
  inflight : Metrics.gauge;
  reads : Metrics.counter;
  writes : Metrics.counter;
  rejected : Metrics.counter;
}

let create ~engine ~cost ?(fault = Fault.create ()) ?(block_size = 4096)
    ?(block_count = 1 lsl 20) ?(sq_depth = 256) ?(programmable = false) () =
  if block_size <= 0 || block_count <= 0 || sq_depth <= 0 then
    invalid_arg "Block.create";
  {
    engine;
    cost;
    fault;
    db = Doorbell.create ~engine ~cost ~name:"block.sq.doorbells" ();
    block_size;
    block_count;
    sq_depth;
    programmable;
    write_prog = None;
    read_prog = None;
    store = Dk_util.Itbl.create 1024;
    cq = Queue.create ();
    cq_notify = (fun () -> ());
    inflight = Metrics.gauge_instance g_inflight;
    reads = Metrics.instance m_reads;
    writes = Metrics.instance m_writes;
    rejected = Metrics.instance m_rejected;
  }

let block_size t = t.block_size
let engine t = t.engine
let programmable t = t.programmable

let set_write_prog t prog =
  if t.programmable then begin
    t.write_prog <- prog;
    Ok ()
  end
  else Error `Not_programmable

let set_read_prog t prog =
  if t.programmable then begin
    t.read_prog <- prog;
    Ok ()
  end
  else Error `Not_programmable

(* Device program latency applies when a program touches the data. *)
let prog_latency t prog =
  match prog with
  | Some _ -> t.cost.Dk_sim.Cost.device_prog_per_elem
  | None -> 0L

let complete t delay comp =
  let submitted = Dk_sim.Engine.now t.engine in
  (* Injected completion stall: the command sits in the device for an
     extra magnitude before the CQ entry lands. *)
  let delay =
    Int64.add delay
      (Int64.of_int
         (Fault.extra_delay t.fault Fault.Block_stall
            ~now:(Dk_sim.Engine.now_ns t.engine)))
  in
  ignore
    (Dk_sim.Engine.after t.engine delay (fun () ->
         Metrics.gauge_add t.inflight (-1);
         let now = Dk_sim.Engine.now t.engine in
         Metrics.observe h_latency (Int64.sub now submitted);
         if Flight.start Flight.default ~now Flight.Completion then begin
           Flight.add_string Flight.default "block wr_id ";
           Flight.add_int Flight.default comp.wr_id;
           Flight.add_string Flight.default " (";
           Flight.add_int64 Flight.default (Int64.sub now submitted);
           Flight.add_string Flight.default "ns in queue)";
           Flight.commit Flight.default
         end;
         Queue.add comp t.cq;
         t.cq_notify ()))

let submit t make_completion latency =
  if Metrics.gauge_value t.inflight >= t.sq_depth then begin
    Metrics.incr t.rejected;
    if
      Flight.start Flight.default ~now:(Dk_sim.Engine.now t.engine)
        Flight.Drop
    then begin
      Flight.add_string Flight.default "block SQ full (";
      Flight.add_int Flight.default (Metrics.gauge_value t.inflight);
      Flight.add_string Flight.default " in flight)";
      Flight.commit Flight.default
    end;
    false
  end
  else begin
    Doorbell.submit t.db (fun () ->
        Metrics.gauge_add t.inflight 1;
        complete t latency (make_completion ()));
    true
  end

let submit_read t ~wr_id ~lba =
  let make () =
    if lba < 0 || lba >= t.block_count then
      { wr_id; status = `Bad_lba; data = None }
    else if
      Fault.fire t.fault Fault.Block_error
        ~now:(Dk_sim.Engine.now_ns t.engine)
    then { wr_id; status = `Io_error; data = None }
    else
      let data =
        match Dk_util.Itbl.find_opt t.store lba with
        | Some s -> s
        | None -> String.make t.block_size '\000'
      in
      let data =
        match t.read_prog with
        | Some prog -> Prog.eval_map prog data
        | None -> data
      in
      { wr_id; status = `Ok; data = Some data }
  in
  let latency =
    Int64.add (prog_latency t t.read_prog)
      (Int64.add t.cost.Dk_sim.Cost.nvme_read
         (Dk_sim.Cost.nvme_transfer_ns t.cost t.block_size))
  in
  let ok = submit t make latency in
  if ok then Metrics.incr t.reads;
  ok

let submit_write t ~wr_id ~lba data =
  if String.length data > t.block_size then
    invalid_arg "Block.submit_write: data exceeds block size";
  let make () =
    if lba < 0 || lba >= t.block_count then
      { wr_id; status = `Bad_lba; data = None }
    else if
      Fault.fire t.fault Fault.Block_error
        ~now:(Dk_sim.Engine.now_ns t.engine)
    then
      (* Media error: nothing persists. *)
      { wr_id; status = `Io_error; data = None }
    else begin
      let data =
        match t.write_prog with
        | Some prog -> Prog.eval_map prog data
        | None -> data
      in
      let data =
        (* Torn write: only a prefix reaches the media, yet the device
           reports success — the failure mode log-structured layouts
           defend against with per-record CRCs (§5.3). *)
        if
          Fault.fire t.fault Fault.Block_torn_write
            ~now:(Dk_sim.Engine.now_ns t.engine)
        then
          String.sub data 0
            (Fault.cut_point t.fault Fault.Block_torn_write
               ~len:(String.length data))
        else data
      in
      let padded =
        if String.length data >= t.block_size then
          String.sub data 0 t.block_size
        else data ^ String.make (t.block_size - String.length data) '\000'
      in
      Dk_util.Itbl.replace t.store lba padded;
      { wr_id; status = `Ok; data = None }
    end
  in
  let latency =
    Int64.add (prog_latency t t.write_prog)
      (Int64.add t.cost.Dk_sim.Cost.nvme_write
         (Dk_sim.Cost.nvme_transfer_ns t.cost (String.length data)))
  in
  let ok = submit t make latency in
  if ok then Metrics.incr t.writes;
  ok

type op =
  | Read of { wr_id : int; lba : int }
  | Write of { wr_id : int; lba : int; data : string }

let submit_many t ops =
  Doorbell.group t.db (fun () ->
      List.fold_left
        (fun acc op ->
          let ok =
            match op with
            | Read { wr_id; lba } -> submit_read t ~wr_id ~lba
            | Write { wr_id; lba; data } -> submit_write t ~wr_id ~lba data
          in
          if ok then acc + 1 else acc)
        0 ops)

let set_sq_window t ns = Doorbell.set_window t.db ns
let sq_doorbells t = Doorbell.rings t.db

let poll_cq t = Queue.take_opt t.cq
let cq_pending t = Queue.length t.cq
let outstanding t = Metrics.gauge_value t.inflight

let stats t =
  {
    reads = Metrics.value t.reads;
    writes = Metrics.value t.writes;
    rejected = Metrics.value t.rejected;
  }

let set_cq_notify t f = t.cq_notify <- f
