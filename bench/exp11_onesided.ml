(* E11 — §5.1 design choice: "whether to use one- or two-sided
   operations for RDMA communication" (and the §6 debate: FaRM-style
   one-sided reads vs FaSST/RFP-style RPCs).

   A KV lookup three ways on the RDMA-class device:
     - rpc       : two-sided SEND/RECV through Demikernel queues;
                   1 RTT + server CPU (the ~2 us request work).
     - read x1   : one-sided READ of a known slot; 1 RTT, zero server
                   CPU — but only possible when the location is known.
     - read x2   : index lookup + value fetch, 2 dependent READs —
                   the general case for hash-table layouts.

   Expected shape (what the literature found): 1 READ wins; the
   general 2-READ case loses to the RPC once server work is cheaper
   than a second round trip — "hybrid is better". *)

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Rdma = Dk_device.Rdma
module H = Dk_sim.Histogram
module Event_loop = Dk_sched.Event_loop

let cost = Cost.default
let rounds = 50
let value_size = 256
let slots = 64

(* two-sided RPC through Demikernel rdma queues, with server app work *)
let rpc_p50 () =
  let engine = Engine.create () in
  let na = Rdma.create ~engine ~cost () and nb = Rdma.create ~engine ~cost () in
  let da = Demi.create ~engine ~cost ~rdma:na () in
  let db = Demi.create ~engine ~cost ~rdma:nb () in
  let qpa = Rdma.create_qp na and qpb = Rdma.create_qp nb in
  Rdma.connect qpa qpb;
  let qa = Result.get_ok (Demi.rdma_endpoint da ~depth:16 qpa) in
  let qb = Result.get_ok (Demi.rdma_endpoint db ~depth:16 qpb) in
  let value = String.make value_size 'v' in
  let loop = Event_loop.create db in
  Event_loop.on_message loop qb (fun req ->
      Dk_mem.Sga.free req;
      (* server-side request processing *)
      Engine.consume engine cost.Cost.app_request;
      match Demi.sga_alloc db value with
      | Ok resp -> Event_loop.send loop qb resp
      | Error _ -> ());
  let h = H.create () in
  for i = 1 to rounds do
    let req = Result.get_ok (Demi.sga_alloc da (Printf.sprintf "GET %d" i)) in
    let t0 = Engine.now engine in
    ignore (Demi.blocking_push da qa req);
    (match Demi.blocking_pop da qa with
    | Types.Popped resp -> Demi.sga_free da resp
    | _ -> failwith "rpc failed");
    H.record h (Int64.sub (Engine.now engine) t0);
    Demi.sga_free da req
  done;
  (match Demi.close da qa with
  | Ok () -> ()
  | Error e -> failwith (Types.error_to_string e));
  H.quantile h 0.5

(* one-sided READs against a server-exposed slot table *)
let read_p50 ~reads_per_lookup () =
  let engine = Engine.create () in
  let na = Rdma.create ~engine ~cost () and nb = Rdma.create ~engine ~cost () in
  let da = Demi.create ~engine ~cost ~rdma:na () in
  let db = Demi.create ~engine ~cost ~rdma:nb () in
  let qpa = Rdma.create_qp na and qpb = Rdma.create_qp nb in
  Rdma.connect qpa qpb;
  (* server: a slot table in registered memory, exposed once *)
  let table = Dk_mem.Manager.alloc_exn (Demi.manager db) (slots * value_size) in
  Dk_mem.Buffer.fill table 'v';
  (match Rdma.expose_window qpb table with
  | Ok () -> ()
  | Error _ -> failwith "expose failed");
  (* one dummy registered allocation on A to force region setup *)
  let dst = Dk_mem.Manager.alloc_exn (Demi.manager da) value_size in
  let index_buf = Dk_mem.Manager.alloc_exn (Demi.manager da) 16 in
  let h = H.create () in
  let rng = Dk_sim.Rng.create 3L in
  for _ = 1 to rounds do
    let slot = Dk_sim.Rng.int rng slots in
    let t0 = Engine.now engine in
    (* optional first read: consult the "index" (16 B of the table) *)
    if reads_per_lookup = 2 then begin
      let done1 = ref false in
      Rdma.post_read qpa ~wr_id:1 ~remote_off:0 ~len:16 index_buf;
      Rdma.set_send_notify qpa (fun () ->
          match Rdma.poll_send_cq qpa with Some _ -> done1 := true | None -> ());
      ignore (Engine.run_until engine (fun () -> !done1))
    end;
    let done2 = ref false in
    Rdma.post_read qpa ~wr_id:2 ~remote_off:(slot * value_size) ~len:value_size dst;
    Rdma.set_send_notify qpa (fun () ->
        match Rdma.poll_send_cq qpa with Some _ -> done2 := true | None -> ());
    ignore (Engine.run_until engine (fun () -> !done2));
    H.record h (Int64.sub (Engine.now engine) t0)
  done;
  H.quantile h 0.5

let run () =
  Report.header ~id:"E11: one-sided vs two-sided RDMA" ~source:"§5.1, §6"
    ~claim:
      "LibOS design choice: one-sided READs skip the server CPU but pay a\n\
       round trip per pointer hop; RPCs pay server CPU once. Neither\n\
       dominates — which is why the libOS must choose per workload.";
  let rpc = rpc_p50 () in
  let r1 = read_p50 ~reads_per_lookup:1 () in
  let r2 = read_p50 ~reads_per_lookup:2 () in
  let widths = [ 26; 12; 18 ] in
  Report.table widths
    [ "access method"; "p50 (ns)"; "server CPU/op (ns)" ]
    [
      [ "one-sided READ x1"; Report.ns r1; "0" ];
      [ "two-sided RPC"; Report.ns rpc; Report.ns cost.Cost.app_request ];
      [ "one-sided READ x2 (index)"; Report.ns r2; "0" ];
    ];
  Report.footnote
    "%d lookups of %d B values. Known-location READ wins; once a lookup\n\
     needs a second dependent READ, the RPC's single round trip competes.\n"
    rounds value_size
