(* Tests for dk_sched: effect-based fibers over qtokens, and the
   worker-pool wakeup model (epoll herd vs qtoken). *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Fiber = Dk_sched.Fiber
module Worker_pool = Dk_sched.Worker_pool
module Sga = Dk_mem.Sga
module Setup = Dk_apps.Sim_setup

let cost = Cost.default

let solo () =
  let engine = Engine.create () in
  (engine, Demi.create ~engine ~cost ())

(* ---------------- Fiber ---------------- *)

let fiber_basic () =
  let _, demi = solo () in
  let sched = Fiber.create demi in
  let log = ref [] in
  Fiber.spawn sched (fun () -> log := "a" :: !log);
  Fiber.spawn sched (fun () -> log := "b" :: !log);
  Fiber.run sched;
  check (Alcotest.list Alcotest.string) "both ran" [ "a"; "b" ] (List.rev !log);
  check_int "none live" 0 (Fiber.live_fibers sched)

let fiber_await_memq () =
  let _, demi = solo () in
  let sched = Fiber.create demi in
  let q = Demi.queue demi in
  let got = ref "" in
  Fiber.spawn sched (fun () ->
      match Fiber.await_pop sched q with
      | Types.Popped sga -> got := Sga.to_string sga
      | _ -> ());
  Fiber.spawn sched (fun () ->
      ignore (Fiber.await_push sched q (Sga.of_string "handoff")));
  Fiber.run sched;
  check_str "value crossed fibers" "handoff" !got

let fiber_sleep_orders () =
  let engine, demi = solo () in
  let sched = Fiber.create demi in
  let log = ref [] in
  Fiber.spawn sched (fun () ->
      Fiber.sleep sched 200L;
      log := ("late", Engine.now engine) :: !log);
  Fiber.spawn sched (fun () ->
      Fiber.sleep sched 100L;
      log := ("early", Engine.now engine) :: !log);
  Fiber.run sched;
  match List.rev !log with
  | [ ("early", t1); ("late", t2) ] ->
      check_bool "ordered by time" true (Int64.compare t1 t2 < 0)
  | _ -> Alcotest.fail "wrong order"

let fiber_yield_interleaves () =
  let _, demi = solo () in
  let sched = Fiber.create demi in
  let log = ref [] in
  Fiber.spawn sched (fun () ->
      log := 1 :: !log;
      Fiber.yield sched;
      log := 3 :: !log);
  Fiber.spawn sched (fun () -> log := 2 :: !log);
  Fiber.run sched;
  check (Alcotest.list Alcotest.int) "interleaved" [ 1; 2; 3 ] (List.rev !log)

(* An end-to-end echo written in direct style with fibers. *)
let fiber_echo_e2e () =
  let w = Setup.world Demikernel in
  (match Dk_apps.Echo.start_demi_server ~demi:w.server ~port:7 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "server");
  let sched = Fiber.create w.client in
  let reply = ref "" in
  Fiber.spawn sched (fun () ->
      let qd = Result.get_ok (Demi.socket w.client `Tcp) in
      (match Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7) with
      | Ok () -> ()
      | Error _ -> failwith "connect");
      ignore (Fiber.await_push sched qd (Sga.of_string "fiber says hi"));
      match Fiber.await_pop sched qd with
      | Types.Popped sga -> reply := Sga.to_string sga
      | _ -> ());
  Fiber.run sched;
  check_str "echo through fibers" "fiber says hi" !reply

let fiber_exception_propagates () =
  let _, demi = solo () in
  let sched = Fiber.create demi in
  Fiber.spawn sched (fun () -> failwith "boom");
  Fiber.spawn sched (fun () -> ());
  (match Fiber.run sched with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg -> check_str "propagated" "boom" msg);
  (* the failing fiber was retired from the live count *)
  check_bool "live count sane" true (Fiber.live_fibers sched <= 1)

(* ---------------- Event loop ---------------- *)

module Event_loop = Dk_sched.Event_loop

let evloop_kv_roundtrip () =
  let w = Setup.world Demikernel in
  let loop = Event_loop.create w.server in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:5);
  ignore (Demi.listen w.server lqd);
  let served = ref 0 in
  Event_loop.on_accept loop lqd (fun conn ->
      Event_loop.on_message loop conn (fun sga ->
          incr served;
          Event_loop.send loop conn
            (Sga.of_string ("re:" ^ Sga.to_string sga))));
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 5));
  ignore (Demi.blocking_push w.client qd (Sga.of_string "ping"));
  (match Demi.blocking_pop w.client qd with
  | Types.Popped sga -> check_str "reply" "re:ping" (Sga.to_string sga)
  | _ -> Alcotest.fail "no reply");
  check_int "served" 1 !served

let evloop_on_close_fires () =
  let w = Setup.world Demikernel in
  let loop = Event_loop.create w.server in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:5);
  ignore (Demi.listen w.server lqd);
  let closed = ref false in
  Event_loop.on_accept loop lqd (fun conn ->
      Event_loop.on_message loop conn (fun _ -> ());
      Event_loop.on_close loop conn (fun _ -> closed := true));
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 5));
  ignore (Demi.close w.client qd);
  ignore (Event_loop.run loop ~until:(fun () -> !closed));
  check_bool "close delivered" true !closed;
  (* the connection is unwatched after close; only the listener stays *)
  check_int "watched" 1 (Event_loop.watched loop)

let evloop_over_storage_queue () =
  (* callbacks on a file queue: storage events through the same API *)
  let engine = Engine.create () in
  let block = Dk_device.Block.create ~engine ~cost () in
  let demi = Demi.create ~engine ~cost ~block () in
  let loop = Event_loop.create demi in
  let qd = Result.get_ok (Demi.fcreate demi "evlog") in
  let got = ref [] in
  Event_loop.on_message loop qd (fun sga ->
      got := Sga.to_string sga :: !got);
  Event_loop.send loop qd (Sga.of_string "first");
  Event_loop.send loop qd (Sga.of_string "second");
  ignore (Event_loop.run loop ~until:(fun () -> List.length !got >= 2));
  check (Alcotest.list Alcotest.string) "records via callbacks"
    [ "first"; "second" ] (List.rev !got)

let evloop_unwatch_stops_delivery () =
  let engine = Engine.create () in
  let demi = Demi.create ~engine ~cost () in
  let loop = Event_loop.create demi in
  let qd = Demi.queue demi in
  let got = ref 0 in
  Event_loop.on_message loop qd (fun _ -> incr got);
  ignore (Demi.blocking_push demi qd (Sga.of_string "one"));
  Engine.run engine;
  check_int "first delivered" 1 !got;
  Event_loop.unwatch loop qd;
  ignore (Demi.blocking_push demi qd (Sga.of_string "two"));
  Engine.run engine;
  check_int "second suppressed" 1 !got

(* ---------------- Worker pool ---------------- *)

let pool_run mode workers =
  let engine = Engine.create () in
  Worker_pool.run ~engine ~cost ~mode ~workers ~jobs:200
    ~mean_interarrival_ns:3000.0 ~service_ns:2000L ()

let herd_wastes_wakeups () =
  let herd = pool_run `Epoll_herd 16 in
  let token = pool_run `Qtoken 16 in
  check_int "herd finished" 200 herd.Worker_pool.jobs_done;
  check_int "token finished" 200 token.Worker_pool.jobs_done;
  check_bool "herd wastes wakeups" true (herd.Worker_pool.wasted_wakeups > 0);
  check_int "token wastes none" 0 token.Worker_pool.wasted_wakeups;
  check_bool "herd wakes more" true
    (herd.Worker_pool.wakeups > token.Worker_pool.wakeups)

let herd_waste_grows_with_workers () =
  let w4 = pool_run `Epoll_herd 4 in
  let w32 = pool_run `Epoll_herd 32 in
  check_bool "more workers, more waste" true
    (w32.Worker_pool.wasted_wakeups > w4.Worker_pool.wasted_wakeups)

let token_latency_not_worse () =
  let herd = pool_run `Epoll_herd 16 in
  let token = pool_run `Qtoken 16 in
  let h_p99 = Dk_sim.Histogram.quantile herd.Worker_pool.dispatch_latency 0.99 in
  let t_p99 = Dk_sim.Histogram.quantile token.Worker_pool.dispatch_latency 0.99 in
  check_bool "qtoken p99 <= herd p99" true (Int64.compare t_p99 h_p99 <= 0)

let single_worker_equivalent () =
  (* with one worker there is no herd: waste must be zero in both *)
  let herd = pool_run `Epoll_herd 1 in
  check_int "no waste possible" 0 herd.Worker_pool.wasted_wakeups

let () =
  Alcotest.run "dk_sched"
    [
      ( "fiber",
        [
          Alcotest.test_case "basic" `Quick fiber_basic;
          Alcotest.test_case "await memq" `Quick fiber_await_memq;
          Alcotest.test_case "sleep ordering" `Quick fiber_sleep_orders;
          Alcotest.test_case "yield interleaves" `Quick fiber_yield_interleaves;
          Alcotest.test_case "echo end-to-end" `Quick fiber_echo_e2e;
          Alcotest.test_case "exception propagates" `Quick fiber_exception_propagates;
        ] );
      ( "event-loop",
        [
          Alcotest.test_case "kv roundtrip" `Quick evloop_kv_roundtrip;
          Alcotest.test_case "on_close fires" `Quick evloop_on_close_fires;
          Alcotest.test_case "unwatch" `Quick evloop_unwatch_stops_delivery;
          Alcotest.test_case "storage events" `Quick evloop_over_storage_queue;
        ] );
      ( "worker-pool",
        [
          Alcotest.test_case "herd wastes wakeups" `Quick herd_wastes_wakeups;
          Alcotest.test_case "waste grows with workers" `Quick herd_waste_grows_with_workers;
          Alcotest.test_case "qtoken latency" `Quick token_latency_not_worse;
          Alcotest.test_case "single worker" `Quick single_worker_equivalent;
        ] );
    ]
