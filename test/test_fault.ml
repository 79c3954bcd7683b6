(* Scenario suite for dk_fault: echo, KV, storage and RDMA workloads
   under the named fault plans, asserting liveness (every run
   terminates in bounded virtual time) and correct error surfacing
   (`Conn_aborted and `Io_error arrive through Demi.wait; nothing
   hangs), frame conservation across the NICs and the fabric under
   every plan — plus the determinism properties that make the injector
   a replay tool: a rate-0 plan is bit-identical to no plan, and the
   same plan + seed replays bit-identically — and isolation: each world
   owns its fault domain, so a plan armed in one reaches no other.

   Set DK_FAULT_CI=1 (the CI fault matrix job does) to widen the
   every-plan sweeps to multiple seeds. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

module Engine = Dk_sim.Engine
module Fault = Dk_fault.Fault
module Setup = Dk_apps.Sim_setup
module Echo = Dk_apps.Echo
module Fault_replay = Dk_apps.Fault_replay
module Kv_app = Dk_apps.Kv_app
module Demi = Demikernel.Demi
module Types = Demikernel.Types

(* Any scenario that is still running after this much virtual time has
   hung in the only way a discrete-event simulation can: by endlessly
   rescheduling itself. Every workload below finishes well under it. *)
let liveness_bound_ns = 60_000_000_000L (* 60 virtual seconds *)

let named ~seed name =
  match Fault.named ~seed name with
  | Some p -> p
  | None -> Alcotest.failf "unknown named plan %S" name

let err_name = function
  | None -> "none"
  | Some e -> Demikernel.Types.error_to_string e

(* Each scenario resets the process-wide registries so its counters
   start at zero. *)
let reset () =
  Dk_obs.Metrics.reset Dk_obs.Metrics.default;
  Dk_obs.Flight.clear Dk_obs.Flight.default

(* A fresh world whose own fault domain is armed with [plan]: its
   faults reach no other world. *)
let armed ?plan ?loss ?block () =
  reset ();
  Setup.world ?fault_plan:plan ?loss ?block Setup.Demikernel

(* ---------------- workload runners ---------------- *)

type outcome = {
  ok : int;           (* rounds / records that completed *)
  err : Types.error option; (* first surfaced error, if any *)
  final_ns : int64;   (* virtual clock when the run ended *)
}

let bounded (o : outcome) =
  check_bool "bounded virtual time" true
    (Int64.compare o.final_ns liveness_bound_ns < 0)

(* The echo phase of the replay workload `demi faults` runs, against a
   demikernel echo server over the world's faulty fabric. *)
let echo_on ?(rounds = 40) ?(size = 256) (w : Demi.t Setup.world) =
  ignore (Echo.serve w);
  let echoed, err = Echo.rtt w ~size ~rounds in
  { ok = Dk_sim.Histogram.count echoed; err; final_ns = Engine.now w.engine }

let run_echo ?plan ?rounds ?size () =
  let w = armed ?plan () in
  (w, echo_on ?rounds ?size w)

(* The replay workload's storage phase: append [records] sealed
   records to a log file on a faulty block device. *)
let run_storage ?plan ?(records = 8) () =
  let w = armed ?plan ~block:true () in
  let ok, err = Fault_replay.log ~demi:w.client ~records in
  (w, { ok; err; final_ns = Engine.now w.engine })

(* Full KV client/server exchange (the paper's headline workload). *)
let run_kv plan =
  let w = armed ~plan () in
  (match Kv_app.serve w with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "kv server: %s" (Types.error_to_string e));
  let r = Kv_app.run w ~ops:200 ~keys:50 ~value_size:64 ~read_fraction:0.9 () in
  (r, Engine.now w.engine)

(* One RDMA push over a connected queue pair, in a fault domain armed
   with [plan]. *)
let run_rdma plan =
  reset ();
  let fault = Fault.create () in
  Fault.install fault plan;
  let engine = Engine.create () in
  let cost = Dk_sim.Cost.default in
  let rdma_a = Dk_device.Rdma.create ~engine ~cost ~fault () in
  let rdma_b = Dk_device.Rdma.create ~engine ~cost ~fault () in
  let da = Demi.create ~engine ~cost ~rdma:rdma_a () in
  let db = Demi.create ~engine ~cost ~rdma:rdma_b () in
  let qa = Dk_device.Rdma.create_qp rdma_a in
  let qb = Dk_device.Rdma.create_qp rdma_b in
  Dk_device.Rdma.connect qa qb;
  let qda = Result.get_ok (Demi.rdma_endpoint da ~depth:8 qa) in
  let qdb = Result.get_ok (Demi.rdma_endpoint db ~depth:8 qb) in
  (fault, engine, da, db, qda, qdb)

(* ---------------- fabric scenarios ---------------- *)

(* Plans the transport absorbs: the app sees every round succeed. *)
let survives plan_name ~seed () =
  let _, o = run_echo ~plan:(named ~seed plan_name) () in
  bounded o;
  check_bool
    (Printf.sprintf "no surfaced error (got %s)" (err_name o.err))
    true (o.err = None);
  check_int "all rounds" 40 o.ok

let loss_burst_injects () =
  let w, o = run_echo ~plan:(named ~seed:7L "loss-burst") () in
  bounded o;
  check_int "all rounds" 40 o.ok;
  check_bool "drops actually injected" true
    (Fault.injected w.fault Fault.Fabric_drop > 0);
  (* surviving drops means TCP retransmitted *)
  check_bool "tcp retransmitted" true
    (Dk_obs.Metrics.value (Dk_obs.Metrics.counter "net.tcp.retransmits") > 0)

let partition_aborts () =
  let w, o = run_echo ~plan:(named ~seed:7L "partition") () in
  bounded o;
  check_bool "partition fired" true
    (Fault.injected w.fault Fault.Fabric_partition > 0);
  (* RTO gives up and surfaces ECONNABORTED instead of hanging *)
  check_bool
    (Printf.sprintf "aborted, not hung (got %s)" (err_name o.err))
    true (o.err = Some `Conn_aborted);
  check_bool "some rounds before the cut" true (o.ok > 0 && o.ok < 40);
  check_bool "abort counted" true
    (Dk_obs.Metrics.value (Dk_obs.Metrics.counter "core.tcp.aborted") > 0)

let partition_heal_recovers () =
  let w, o = run_echo ~plan:(named ~seed:7L "partition-heal") () in
  bounded o;
  check_bool "partition fired" true
    (Fault.injected w.fault Fault.Fabric_partition > 0);
  check_bool
    (Printf.sprintf "healed before RTO gave up (got %s)" (err_name o.err))
    true (o.err = None);
  check_int "all rounds" 40 o.ok

let corrupt_wire_checksummed () =
  let w, o = run_echo ~plan:(named ~seed:7L "corrupt-wire") () in
  bounded o;
  check_int "all rounds" 40 o.ok;
  check_bool "corruption injected" true
    (Fault.injected w.fault Fault.Fabric_corrupt > 0);
  check_bool "no error surfaced" true (o.err = None)

let dup_storm_deduplicated () =
  let w, o = run_echo ~plan:(named ~seed:7L "dup-storm") () in
  bounded o;
  check_int "all rounds" 40 o.ok;
  check_bool "duplicates injected" true
    (Fault.injected w.fault Fault.Fabric_dup > 0
    && Fault.injected w.fault Fault.Nic_rx_dup > 0);
  check_bool "no error surfaced" true (o.err = None)

let kv_under_loss () =
  match run_kv (named ~seed:11L "loss-burst") with
  | Error e, _ -> Alcotest.failf "kv client: %s" (Types.error_to_string e)
  | Ok stats, now ->
      check_bool "bounded virtual time" true
        (Int64.compare now liveness_bound_ns < 0);
      check_int "all ops" 200 stats.Kv_app.ops;
      check_int "no misses" 0 stats.Kv_app.misses

let kv_under_corruption () =
  match run_kv (named ~seed:11L "corrupt-wire") with
  | Error e, _ -> Alcotest.failf "kv client: %s" (Types.error_to_string e)
  | Ok stats, now ->
      check_bool "bounded virtual time" true
        (Int64.compare now liveness_bound_ns < 0);
      check_int "all ops" 200 stats.Kv_app.ops;
      check_int "no misses" 0 stats.Kv_app.misses

(* ---------------- block scenarios ---------------- *)

let slow_disk_completes () =
  let w, o = run_storage ~plan:(named ~seed:7L "slow-disk") () in
  bounded o;
  check_int "all records" 8 o.ok;
  check_bool "stalls injected" true
    (Fault.injected w.fault Fault.Block_stall > 0);
  check_bool "no error surfaced" true (o.err = None)

let flaky_disk_retried () =
  let w, o = run_storage ~plan:(named ~seed:7L "flaky-disk") () in
  bounded o;
  check_int "all records" 8 o.ok;
  check_bool "errors injected" true
    (Fault.injected w.fault Fault.Block_error > 0);
  check_bool "dispatcher recovered" true
    (Dk_obs.Metrics.value (Dk_obs.Metrics.counter "core.block.recovered") > 0);
  check_bool "no error surfaced" true (o.err = None)

let broken_disk_surfaces_io_error () =
  let w, o = run_storage ~plan:(named ~seed:7L "broken-disk") () in
  bounded o;
  check_bool "errors injected" true
    (Fault.injected w.fault Fault.Block_error > 0);
  check_bool
    (Printf.sprintf "EIO, not a hang (got %s)" (err_name o.err))
    true (o.err = Some `Io_error);
  check_bool "dispatcher gave up after retries" true
    (Dk_obs.Metrics.value (Dk_obs.Metrics.counter "core.block.gave_up") > 0)

let torn_write_detected () =
  let w, o = run_storage ~plan:(named ~seed:7L "torn-write") () in
  bounded o;
  check_int "exactly one torn write" 1
    (Fault.injected w.fault Fault.Block_torn_write);
  (* the CRC seal catches the truncated record on read-back *)
  check_bool
    (Printf.sprintf "EIO on read-back (got %s)" (err_name o.err))
    true (o.err = Some `Io_error)

(* ---------------- RDMA scenario ---------------- *)

let rdma_break_aborts () =
  let fault, engine, da, db, qda, qdb = run_rdma (named ~seed:7L "rdma-break") in
  let sga = Result.get_ok (Demi.sga_alloc da "doomed") in
  (match Demi.blocking_push da qda sga with
  | Types.Failed `Conn_aborted -> ()
  | r -> Alcotest.failf "push: expected Conn_aborted, got %a" Types.pp_op_result r);
  check_int "one break" 1 (Fault.injected fault Fault.Rdma_qp_break);
  (* the peer's pops must not hang on the severed pair either *)
  (match Demi.pop db qdb with
  | Error _ -> ()
  | Ok tok -> (
      match Demi.wait_timeout db tok ~timeout:10_000_000L with
      | Types.Failed _ -> ()
      | r -> Alcotest.failf "pop: unexpected %a" Types.pp_op_result r));
  check_bool "bounded virtual time" true
    (Int64.compare (Engine.now engine) liveness_bound_ns < 0)

(* ---------------- isolation ---------------- *)

(* Two worlds in one process: the plan armed in one never reaches the
   other, because each world owns its fault domain. *)
let worlds_do_not_share_faults () =
  let wa = armed ~plan:(named ~seed:7L "partition") () in
  let wb = armed () in
  let a = echo_on wa in
  let b = echo_on wb in
  check_bool "A partitioned" true
    (Fault.injected wa.fault Fault.Fabric_partition > 0);
  check_bool
    (Printf.sprintf "A aborted (got %s)" (err_name a.err))
    true (a.err = Some `Conn_aborted);
  check_bool
    (Printf.sprintf "B clean (got %s)" (err_name b.err))
    true (b.err = None);
  check_int "B completed every round" 40 b.ok;
  check_int "nothing injected in B" 0 (Fault.total_injected wb.fault)

(* Every site maps to its own slot: arming one site at rate 1 makes
   exactly that site fire, and counts the shot there and nowhere else. *)
let each_site_arms_alone () =
  List.iter
    (fun site ->
      let t = Fault.create () in
      Fault.install t
        (Fault.plan ~seed:7L [ (site, Fault.spec ~rate:1.0 ()) ]);
      List.iter
        (fun s ->
          let name = Fault.site_name site ^ " armed, " ^ Fault.site_name s in
          check_bool (name ^ " fires") (s = site) (Fault.fire t s ~now:0L);
          check_int
            (name ^ " injected")
            (if s = site then 1 else 0)
            (Fault.injected t s))
        Fault.sites;
      check_int (Fault.site_name site ^ " total") 1 (Fault.total_injected t))
    Fault.sites

(* ---------------- the full matrix ---------------- *)

(* DK_FAULT_CI=1 (the CI matrix job) widens the every-plan sweeps to
   several seeds. *)
let matrix_seeds () =
  match Sys.getenv_opt "DK_FAULT_CI" with
  | Some ("1" | "true") -> [ 3L; 7L; 13L ]
  | _ -> [ 7L ]

(* Every named plan, echo + storage, must terminate and surface only
   the sanctioned errors. *)
let every_plan_is_live () =
  let seeds = matrix_seeds () in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun seed ->
          let plan = named ~seed name in
          let _, e = run_echo ~plan ~rounds:20 () in
          bounded e;
          let _, s = run_storage ~plan ~records:4 () in
          bounded s;
          List.iter
            (fun o ->
              match o.err with
              | None | Some `Conn_aborted | Some `Io_error -> ()
              | Some err ->
                  Alcotest.failf "%s seed %Ld surfaced %s" name seed
                    (Types.error_to_string err))
            [ e; s ])
        seeds)
    Fault.plan_names

(* ---------------- conservation ---------------- *)

(* Each frame a NIC finished transmitting either died at its PHY (an
   injected tx drop) or reached the fabric, where every copy of it (an
   injected duplicate is one more) was delivered, lost or unrouted once
   the engine drains. Each object's [stats] counts into an instance of
   its class counter, so the per-object records must also sum to the
   class counters exactly. *)
let counter name = Dk_obs.Metrics.value (Dk_obs.Metrics.counter name)

let check_sum label name values =
  check_int (label ^ ": " ^ name) (counter name) (List.fold_left ( + ) 0 values)

let fabric_conserves_frames ?plan label =
  let w = armed ?plan ~loss:0.03 () in
  ignore (echo_on ~rounds:50 ~size:3_000 w);
  Engine.run w.engine;
  let nics = [ w.a.Setup.nic; w.b.Setup.nic ] in
  let nic f = List.map (fun n -> f (Dk_device.Nic.stats n)) nics in
  let stacks = [ w.a.Setup.stack; w.b.Setup.stack ] in
  let stack f = List.map (fun s -> f (Dk_net.Stack.stats s)) stacks in
  let mem f =
    List.map (fun d -> f (Dk_mem.Manager.stats (Demi.manager d))) [ w.client; w.server ]
  in
  let fab = Dk_device.Fabric.stats w.fabric in
  let open Dk_device in
  check_sum label "device.nic.tx_frames" (nic (fun s -> s.Nic.tx_frames));
  check_sum label "device.nic.tx_bytes" (nic (fun s -> s.Nic.tx_bytes));
  check_sum label "device.nic.tx_rejected" (nic (fun s -> s.Nic.tx_rejected));
  check_sum label "device.nic.rx_frames" (nic (fun s -> s.Nic.rx_frames));
  check_sum label "device.nic.rx_bytes" (nic (fun s -> s.Nic.rx_bytes));
  check_sum label "device.nic.rx_dropped" (nic (fun s -> s.Nic.rx_dropped));
  check_sum label "device.fabric.delivered" [ fab.Fabric.delivered ];
  check_sum label "device.fabric.lost" [ fab.Fabric.lost ];
  check_sum label "device.fabric.unrouted" [ fab.Fabric.unrouted ];
  check_sum label "net.stack.frames_in" (stack (fun s -> s.Dk_net.Stack.frames_in));
  check_sum label "net.stack.frames_out" (stack (fun s -> s.Dk_net.Stack.frames_out));
  check_sum label "net.stack.decode_errors"
    (stack (fun s -> s.Dk_net.Stack.decode_errors));
  check_sum label "net.stack.not_for_us" (stack (fun s -> s.Dk_net.Stack.not_for_us));
  check_sum label "net.stack.no_listener" (stack (fun s -> s.Dk_net.Stack.no_listener));
  check_sum label "mem.manager.allocs" (mem (fun s -> s.Dk_mem.Manager.allocs));
  check_sum label "mem.manager.releases" (mem (fun s -> s.Dk_mem.Manager.releases));
  check_sum label "mem.manager.deferred_releases"
    (mem (fun s -> s.Dk_mem.Manager.deferred_releases));
  List.iter
    (fun site ->
      check_sum label
        ("fault." ^ Fault.site_name site ^ ".injected")
        [ Fault.injected w.fault site ])
    Fault.sites;
  check_int (label ^ ": tx - tx_drop + dup = delivered + lost + unrouted")
    (counter "device.nic.tx_frames"
    - counter "fault.nic.tx_drop.injected"
    + counter "fault.fabric.dup.injected")
    (fab.Fabric.delivered + fab.Fabric.lost + fab.Fabric.unrouted)

let frames_conserved_under_every_plan () =
  fabric_conserves_frames "no plan";
  List.iter
    (fun (name, _) ->
      List.iter
        (fun seed ->
          fabric_conserves_frames ~plan:(named ~seed name)
            (Printf.sprintf "%s seed %Ld" name seed))
        (matrix_seeds ()))
    Fault.plan_names

(* ---------------- determinism properties ---------------- *)

(* What `demi stats --json` emits: the full metrics snapshot plus the
   flight recorder, byte for byte. *)
let stats_json ~now =
  Dk_obs.Export.json_lines ~now (Dk_obs.Metrics.snapshot Dk_obs.Metrics.default)
  ^ Dk_obs.Export.json_flight Dk_obs.Flight.default

(* The capture of one echo run, and how many faults its world injected. *)
let run_echo_capture ?plan () =
  let w, o = run_echo ?plan () in
  check_bool "clean run" true (o.err = None);
  (stats_json ~now:o.final_ns, Fault.total_injected w.fault)

let rate_zero_plan_is_bit_identical () =
  let baseline, _ = run_echo_capture () in
  let zero =
    Fault.plan ~seed:99L ~name:"all-zero"
      (List.map (fun s -> (s, Fault.spec ~rate:0.0 ())) Fault.sites)
  in
  let armed, injected = run_echo_capture ~plan:zero () in
  check Alcotest.string "rate-0 plan == no plan" baseline armed;
  check_bool "nothing injected" true (injected = 0)

let same_seed_replays_bit_identical () =
  let plan = named ~seed:9L "loss-burst" in
  let a, _ = run_echo_capture ~plan () in
  let b, _ = run_echo_capture ~plan () in
  check Alcotest.string "same plan+seed replays identically" a b;
  (* and the run was not trivially fault-free *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "faults present in the capture" true
    (contains a "fault.fabric.drop.injected")

let different_seeds_diverge () =
  (* Not a determinism requirement per se, but the property that makes
     seeds worth varying in the CI matrix: the stream actually moves. *)
  let a, _ = run_echo_capture ~plan:(named ~seed:9L "loss-burst") () in
  let b, _ = run_echo_capture ~plan:(named ~seed:10L "loss-burst") () in
  check_bool "seeds explore different schedules" true (a <> b)

let () =
  Alcotest.run "dk_fault"
    [
      ( "fabric",
        [
          Alcotest.test_case "loss-burst injects + survives" `Quick
            loss_burst_injects;
          Alcotest.test_case "partition aborts" `Quick partition_aborts;
          Alcotest.test_case "partition-heal recovers" `Quick
            partition_heal_recovers;
          Alcotest.test_case "corrupt-wire checksummed" `Quick
            corrupt_wire_checksummed;
          Alcotest.test_case "dup-storm deduplicated" `Quick
            dup_storm_deduplicated;
          Alcotest.test_case "reorder survives" `Quick
            (survives "reorder" ~seed:7L);
          Alcotest.test_case "nic-flaky survives" `Quick
            (survives "nic-flaky" ~seed:7L);
        ] );
      ( "kv",
        [
          Alcotest.test_case "kv under loss-burst" `Quick kv_under_loss;
          Alcotest.test_case "kv under corrupt-wire" `Quick kv_under_corruption;
        ] );
      ( "block",
        [
          Alcotest.test_case "slow-disk completes" `Quick slow_disk_completes;
          Alcotest.test_case "flaky-disk retried" `Quick flaky_disk_retried;
          Alcotest.test_case "broken-disk surfaces EIO" `Quick
            broken_disk_surfaces_io_error;
          Alcotest.test_case "torn-write detected" `Quick torn_write_detected;
        ] );
      ( "rdma",
        [ Alcotest.test_case "qp break aborts" `Quick rdma_break_aborts ] );
      ( "isolation",
        [
          Alcotest.test_case "worlds do not share faults" `Quick
            worlds_do_not_share_faults;
          Alcotest.test_case "each site arms alone" `Quick each_site_arms_alone;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "every plan is live" `Slow every_plan_is_live;
          Alcotest.test_case "frames conserved under every plan" `Slow
            frames_conserved_under_every_plan;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "rate-0 == no plan" `Quick
            rate_zero_plan_is_bit_identical;
          Alcotest.test_case "same seed replays" `Quick
            same_seed_replays_bit_identical;
          Alcotest.test_case "seeds diverge" `Quick different_seeds_diverge;
        ] );
    ]
