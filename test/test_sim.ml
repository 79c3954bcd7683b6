(* Tests for dk_sim: engine determinism and timers, rng, histogram,
   cost model. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_i64 = check Alcotest.int64

module Engine = Dk_sim.Engine

(* ---------------- Engine ---------------- *)

let engine_clock_starts_zero () =
  let e = Engine.create () in
  check_i64 "t0" 0L (Engine.now e)

let engine_consume () =
  let e = Engine.create () in
  Engine.consume e 100L;
  check_i64 "advanced" 100L (Engine.now e);
  Engine.consume e (-5L);
  check_i64 "negative ignored" 100L (Engine.now e)

let engine_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.after e 30L (fun () -> log := 3 :: !log));
  ignore (Engine.after e 10L (fun () -> log := 1 :: !log));
  ignore (Engine.after e 20L (fun () -> log := 2 :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log);
  check_i64 "clock at last event" 30L (Engine.now e)

let engine_tie_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.after e 10L (fun () -> log := "a" :: !log));
  ignore (Engine.after e 10L (fun () -> log := "b" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "fifo ties" [ "a"; "b" ] (List.rev !log)

let engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.after e 5L (fun () ->
         log := "outer" :: !log;
         ignore (Engine.after e 5L (fun () -> log := "inner" :: !log))));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ]
    (List.rev !log);
  check_i64 "time" 10L (Engine.now e)

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.after e 10L (fun () -> fired := true) in
  check_int "pending 1" 1 (Engine.pending e);
  Engine.cancel timer;
  check_int "pending 0" 0 (Engine.pending e);
  Engine.run e;
  check_bool "not fired" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel timer

let engine_cancel_after_fire () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.after e 1L (fun () -> incr count) in
  Engine.run e;
  Engine.cancel timer;
  (* must not corrupt the pending count *)
  ignore (Engine.after e 1L (fun () -> incr count));
  check_int "pending" 1 (Engine.pending e);
  Engine.run e;
  check_int "both ran" 2 !count

let engine_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.after e 10L (fun () -> incr hits))
  done;
  let reached = Engine.run_until e (fun () -> !hits >= 3) in
  check_bool "pred reached" true reached;
  check_int "stopped at 3" 3 !hits;
  let reached = Engine.run_until e (fun () -> !hits >= 100) in
  check_bool "drained without pred" false reached

let engine_run_for () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.after e 10L (fun () -> log := 10 :: !log));
  ignore (Engine.after e 50L (fun () -> log := 50 :: !log));
  Engine.run_for e 20L;
  check (Alcotest.list Alcotest.int) "only early event" [ 10 ] (List.rev !log);
  check_i64 "clock at window end" 20L (Engine.now e);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "then the rest" [ 10; 50 ] (List.rev !log)

let engine_past_schedule_clamped () =
  let e = Engine.create () in
  Engine.consume e 100L;
  let at = ref 0L in
  ignore (Engine.at e 10L (fun () -> at := Engine.now e));
  Engine.run e;
  check_i64 "clamped to now" 100L !at

let engine_run_for_with_cancelled_head () =
  let e = Engine.create () in
  let fired = ref [] in
  let t1 = Engine.after e 5L (fun () -> fired := 5 :: !fired) in
  ignore (Engine.after e 10L (fun () -> fired := 10 :: !fired));
  Engine.cancel t1;
  Engine.run_for e 20L;
  check (Alcotest.list Alcotest.int) "only live event" [ 10 ] (List.rev !fired);
  check_i64 "clock at window end" 20L (Engine.now e)

(* Determinism: same script twice gives identical event sequences. *)
let engine_deterministic () =
  let run () =
    let e = Engine.create () in
    let rng = Dk_sim.Rng.create 42L in
    let log = ref [] in
    for i = 1 to 50 do
      let d = Int64.of_int (Dk_sim.Rng.int rng 100) in
      ignore (Engine.after e d (fun () -> log := (i, Engine.now e) :: !log))
    done;
    Engine.run e;
    !log
  in
  check_bool "identical logs" true (run () = run ())

(* ---------------- Rng ---------------- *)

module Rng = Dk_sim.Rng

let rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let rng_bounds () =
  let r = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check_bool "unit interval" true (f >= 0.0 && f < 1.0)
  done

let rng_split_independent () =
  let parent = Rng.create 3L in
  let child = Rng.split parent in
  let a = Rng.next_int64 child in
  let b = Rng.next_int64 parent in
  check_bool "streams differ" true (a <> b)

let rng_exponential_positive () =
  let r = Rng.create 9L in
  let sum = ref 0.0 in
  for _ = 1 to 1000 do
    let v = Rng.exponential r 100.0 in
    check_bool "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 1000.0 in
  check_bool "mean near 100" true (mean > 70.0 && mean < 130.0)

let rng_bad_bound () =
  let r = Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* ---------------- Histogram ---------------- *)

module H = Dk_sim.Histogram

let hist_empty () =
  let h = H.create () in
  check_int "count" 0 (H.count h);
  check_i64 "quantile of empty" 0L (H.quantile h 0.5)

let hist_exact_small () =
  let h = H.create () in
  List.iter (fun v -> H.record h (Int64.of_int v)) [ 1; 2; 3; 4; 5 ];
  check_i64 "min" 1L (H.min h);
  check_i64 "max" 5L (H.max h);
  check_i64 "p50" 3L (H.quantile h 0.5);
  check (Alcotest.float 0.01) "mean" 3.0 (H.mean h)

(* One sample: every quantile, plus min/max/mean, is that value. *)
let hist_single_sample () =
  let h = H.create () in
  H.record h 4242L;
  check_int "count" 1 (H.count h);
  check_i64 "min" 4242L (H.min h);
  check_i64 "max" 4242L (H.max h);
  check (Alcotest.float 0.01) "mean" 4242.0 (H.mean h);
  List.iter
    (fun q -> check_i64 (Printf.sprintf "q%.2f" q) 4242L (H.quantile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let hist_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone" ~count:100
    QCheck.(small_list (int_bound 1_000_000))
    (fun vs ->
      QCheck.assume (vs <> []);
      let h = H.create () in
      List.iter (fun v -> H.record h (Int64.of_int v)) vs;
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let values = List.map (H.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> Int64.compare a b <= 0 && mono rest
        | _ -> true
      in
      mono values)

let hist_quantile_bounded =
  QCheck.Test.make ~name:"quantile within [min,max]" ~count:100
    QCheck.(small_list (int_bound 10_000_000))
    (fun vs ->
      QCheck.assume (vs <> []);
      let h = H.create () in
      List.iter (fun v -> H.record h (Int64.of_int v)) vs;
      let p99 = H.quantile h 0.99 in
      Int64.compare p99 (H.max h) <= 0 && Int64.compare (H.quantile h 0.0) (H.min h) >= 0)

let hist_accuracy () =
  (* log buckets: relative error under ~3% for large values *)
  let h = H.create () in
  H.record h 1_000_000L;
  let q = Int64.to_float (H.quantile h 0.5) in
  check_bool "within 3%" true (abs_float (q -. 1_000_000.0) /. 1_000_000.0 < 0.03)

let hist_merge () =
  let a = H.create () and b = H.create () in
  H.record a 10L;
  H.record b 20L;
  let m = H.merge a b in
  check_int "merged count" 2 (H.count m);
  check_i64 "merged min" 10L (H.min m);
  check_i64 "merged max" 20L (H.max m)

let hist_clear () =
  let h = H.create () in
  H.record h 5L;
  H.clear h;
  check_int "cleared" 0 (H.count h)

(* ---------------- Cost ---------------- *)

module Cost = Dk_sim.Cost

let cost_copy_matches_paper () =
  (* §3.2: copying a 4 KB page ~ 1 us *)
  let c = Cost.copy_ns Cost.default 4096 in
  check_bool "4KB copy near 1us" true
    (Int64.compare c 950L > 0 && Int64.compare c 1100L < 0)

let cost_monotone () =
  let d = Cost.default in
  check_bool "copy grows" true
    (Int64.compare (Cost.copy_ns d 100) (Cost.copy_ns d 1000) < 0);
  check_bool "wire grows" true
    (Int64.compare (Cost.wire_ns d 64) (Cost.wire_ns d 1500) < 0);
  check_bool "dma grows" true
    (Int64.compare (Cost.dma_ns d 0) (Cost.dma_ns d 4096) < 0)

let cost_bypass_cheaper_than_kernel () =
  let d = Cost.default in
  (* one bypass send op vs one kernel-mediated op, fixed costs only *)
  let bypass = Int64.add d.Cost.pcie_doorbell d.Cost.user_net_per_pkt in
  let kernel = Int64.add d.Cost.syscall d.Cost.kernel_net_per_pkt in
  check_bool "bypass < kernel" true (Int64.compare bypass kernel < 0)

let cost_cycles () =
  let d = Cost.default in
  check_i64 "4000 cycles at 4GHz = 1000ns" 1000L (Cost.cycles_to_ns d 4000)

(* Property: with random schedules and cancellations, events fire in
   non-decreasing time order and cancelled events never fire. *)
let engine_timer_stress_prop =
  QCheck.Test.make ~name:"timers fire in order; cancelled never fire" ~count:200
    QCheck.(small_list (pair (int_bound 1000) bool))
    (fun script ->
      let e = Engine.create () in
      let fired = ref [] in
      let cancelled_fired = ref false in
      let timers =
        List.mapi
          (fun i (delay, cancel_it) ->
            let timer =
              Engine.after e (Int64.of_int delay) (fun () ->
                  fired := (i, Engine.now e) :: !fired;
                  if cancel_it then cancelled_fired := true)
            in
            (timer, cancel_it))
          script
      in
      List.iter (fun (timer, c) -> if c then Engine.cancel timer) timers;
      Engine.run e;
      let times = List.rev_map snd !fired in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> Int64.compare a b <= 0 && non_decreasing rest
        | _ -> true
      in
      (not !cancelled_fired) && non_decreasing times
      && Engine.pending e = 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dk_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock starts at zero" `Quick engine_clock_starts_zero;
          Alcotest.test_case "consume" `Quick engine_consume;
          Alcotest.test_case "event order" `Quick engine_event_order;
          Alcotest.test_case "tie fifo" `Quick engine_tie_fifo;
          Alcotest.test_case "nested schedule" `Quick engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "cancel after fire" `Quick engine_cancel_after_fire;
          Alcotest.test_case "run_until" `Quick engine_run_until;
          Alcotest.test_case "run_for" `Quick engine_run_for;
          Alcotest.test_case "run_for cancelled head" `Quick engine_run_for_with_cancelled_head;
          Alcotest.test_case "past schedule clamped" `Quick engine_past_schedule_clamped;
          Alcotest.test_case "deterministic" `Quick engine_deterministic;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "exponential" `Quick rng_exponential_positive;
          Alcotest.test_case "bad bound" `Quick rng_bad_bound;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick hist_empty;
          Alcotest.test_case "single sample" `Quick hist_single_sample;
          Alcotest.test_case "exact small values" `Quick hist_exact_small;
          Alcotest.test_case "log bucket accuracy" `Quick hist_accuracy;
          Alcotest.test_case "merge" `Quick hist_merge;
          Alcotest.test_case "clear" `Quick hist_clear;
        ] );
      qsuite "histogram-props" [ hist_quantile_monotone; hist_quantile_bounded ];
      qsuite "engine-props" [ engine_timer_stress_prop ];
      ( "cost",
        [
          Alcotest.test_case "copy matches paper" `Quick cost_copy_matches_paper;
          Alcotest.test_case "monotone" `Quick cost_monotone;
          Alcotest.test_case "bypass cheaper" `Quick cost_bypass_cheaper_than_kernel;
          Alcotest.test_case "cycle conversion" `Quick cost_cycles;
        ] );
    ]
