(* Tests for dk_sim: engine determinism, timers and event heap (against
   a reference model, and for allocation), rng, histogram, cost
   model. *)

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

(* Far-future times saturate at the horizon ([max_int] ns) instead of
   wrapping into the past. *)
let engine_far_future_saturates () =
  let horizon = Int64.of_int max_int in
  let e = Engine.create () in
  Engine.consume e 10L;
  let log = ref [] in
  ignore (Engine.after e Int64.max_int (fun () -> log := "far" :: !log));
  ignore (Engine.at e 15L (fun () -> log := "15" :: !log));
  check (Alcotest.option Alcotest.int64) "head is the near event" (Some 15L)
    (Engine.next_at e);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "far fires last" [ "15"; "far" ]
    (List.rev !log);
  check_i64 "clock at the horizon" horizon (Engine.now e);
  Engine.consume e Int64.max_int;
  check_i64 "consume saturates" horizon (Engine.now e);
  let e = Engine.create () in
  Engine.consume e 10L;
  Engine.run_for e Int64.max_int;
  check_i64 "run_for saturates" horizon (Engine.now e);
  let e = Engine.create () in
  Engine.consume e Int64.max_int;
  Engine.consume e Int64.max_int;
  check_i64 "busy total saturates" horizon (Engine.consumed e)

let engine_timer_handle () =
  let e = Engine.create () in
  let fired = ref [] in
  let tm = Engine.timer e (fun () -> fired := Engine.now e :: !fired) in
  check_bool "made unscheduled" false (Engine.scheduled tm);
  check_int "nothing queued" 0 (Engine.pending e);
  Engine.rearm tm 10L;
  check_bool "armed" true (Engine.scheduled tm);
  Engine.rearm tm 30L;
  check_int "re-arming a queued handle keeps one event" 1 (Engine.pending e);
  Engine.run e;
  check (Alcotest.list Alcotest.int64) "fired once, at the later time" [ 30L ]
    !fired;
  check_bool "fired: not scheduled" false (Engine.scheduled tm);
  Engine.rearm tm 5L;
  Engine.cancel tm;
  check_bool "cancelled: not scheduled" false (Engine.scheduled tm);
  check_int "cancel leaves the heap at once" 0 (Engine.pending e);
  Engine.rearm tm 5L;
  Engine.run e;
  check (Alcotest.list Alcotest.int64) "re-armed after cancel" [ 35L; 30L ]
    !fired

(* A re-armed handle draws a fresh insertion order: it runs after an
   event scheduled for the same time before the re-arm. *)
let engine_rearm_fresh_seq () =
  let e = Engine.create () in
  let log = ref [] in
  let tm = Engine.timer e (fun () -> log := "tm" :: !log) in
  Engine.rearm tm 10L;
  ignore (Engine.after e 10L (fun () -> log := "ev" :: !log));
  Engine.rearm tm 10L;
  Engine.run e;
  check (Alcotest.list Alcotest.string) "fresh seq" [ "ev"; "tm" ]
    (List.rev !log)

(* A thunk may re-arm its own handle: a periodic timer. *)
let engine_rearm_from_own_thunk () =
  let e = Engine.create () in
  let times = ref [] in
  let rec tm =
    lazy
      (Engine.timer e (fun () ->
           times := Engine.now e :: !times;
           if List.length !times < 3 then Engine.rearm (Lazy.force tm) 7L))
  in
  Engine.rearm (Lazy.force tm) 7L;
  Engine.run e;
  check (Alcotest.list Alcotest.int64) "periodic" [ 7L; 14L; 21L ]
    (List.rev !times);
  check_int "drained" 0 (Engine.pending e)

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
  check_bool "wire grows" true (Cost.wire_ns d 64 < Cost.wire_ns d 1500);
  check_bool "dma grows" true (Cost.dma_ns d 0 < Cost.dma_ns d 4096)

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

(* ---------------- Engine: the event heap ----------------

   The engine's heap is intrinsic (the event record is the heap
   element), so its ordering contract is tested through the engine. *)

let heap_order () =
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun k ->
      ignore (Engine.at e (Int64.of_int k) (fun () -> order := k :: !order)))
    [ 5; 3; 9; 1; 7 ];
  Engine.run e;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 3; 5; 7; 9 ] (List.rev !order)

let heap_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun v -> ignore (Engine.at e 5L (fun () -> order := v :: !order)))
    [ "a"; "b"; "c" ];
  Engine.run e;
  check (Alcotest.list Alcotest.string) "insertion order" [ "a"; "b"; "c" ]
    (List.rev !order)

let heap_min_peek () =
  let e = Engine.create () in
  check_bool "empty peek" true (Engine.next_at e = None);
  ignore (Engine.at e 9L (fun () -> ()));
  let t2 = Engine.at e 2L (fun () -> ()) in
  check (Alcotest.option Alcotest.int64) "min time" (Some 2L) (Engine.next_at e);
  check_int "pending" 2 (Engine.pending e);
  Engine.cancel t2;
  check (Alcotest.option Alcotest.int64) "cancelled head skipped" (Some 9L)
    (Engine.next_at e);
  check_i64 "peeking runs nothing" 0L (Engine.now e)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap drains sorted" ~count:300
    QCheck.(small_list (int_bound 1_000_000))
    (fun keys ->
      let e = Engine.create () in
      let out = ref [] in
      List.iter
        (fun k ->
          ignore (Engine.at e (Int64.of_int k) (fun () -> out := k :: !out)))
        keys;
      Engine.run e;
      List.rev !out = List.stable_sort compare keys)

(* ---------------- Engine vs a reference model ----------------

   A script drives 1-4 engines; the same script runs against a model
   that keeps every timer in an array and fires the least queued one by
   (time, engine index, insertion) — a stable sort, with cross-engine
   ties to the lowest index. Scheduled thunks run ops of their own, so
   events are also scheduled, cancelled and re-armed from inside the
   loop, onto any engine, and [At] times below an engine's clock
   exercise the clamp. Any timer, queued, fired or cancelled, may be
   cancelled or re-armed, after a delay ([rearm]) or at an absolute
   time ([rearm_at]) before, at or after its engine's clock, and clocks
   also move by [consume] and [run_for]. At every checkpoint each
   engine's clock is read both boxed and as an int. *)

type op =
  | At of int * int * op list  (* engine, absolute time, ops the thunk runs *)
  | After of int * int * op list  (* engine, delay (may be negative) *)
  | Timer of int * op list  (* engine: an unscheduled handle *)
  | Cancel of int  (* the k-th timer made so far, mod their count *)
  | Rearm of int * int  (* the k-th timer, delay (may be negative) *)
  | Rearm_at of int * int
      (* the k-th timer, at its engine's clock plus this (may be
         negative: a time in the past) *)
  | Consume of int * int  (* engine, ns (may be negative) *)
  | Run_for of int * int  (* top level only: engine, window *)
  | Steps of int  (* top level only: this many scheduler steps *)

(* A timer runs its ops on its first [op_runs] firings only, so handles
   that re-arm themselves or each other cannot run forever. *)
let op_runs = 2

let rec pp_op = function
  | At (e, t, ops) -> Printf.sprintf "At(%d,%d,[%s])" e t (pp_ops ops)
  | After (e, d, ops) -> Printf.sprintf "After(%d,%d,[%s])" e d (pp_ops ops)
  | Timer (e, ops) -> Printf.sprintf "Timer(%d,[%s])" e (pp_ops ops)
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Rearm (k, d) -> Printf.sprintf "Rearm(%d,%d)" k d
  | Rearm_at (k, d) -> Printf.sprintf "Rearm_at(%d,%d)" k d
  | Consume (e, d) -> Printf.sprintf "Consume(%d,%d)" e d
  | Run_for (e, d) -> Printf.sprintf "Run_for(%d,%d)" e d
  | Steps k -> Printf.sprintf "Steps %d" k

and pp_ops ops = String.concat "; " (List.map pp_op ops)

let gen_script =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  let eng = int_bound (n - 1) and time = int_range (-5) 40 in
  let delay = int_range (-3) 20 and busy = int_range (-3) 10 in
  let leaf =
    frequency
      [
        (3, map2 (fun e t -> At (e, t, [])) eng time);
        (2, map2 (fun e d -> After (e, d, [])) eng delay);
        (1, map (fun e -> Timer (e, [])) eng);
        (2, map (fun k -> Cancel k) nat);
        (2, map2 (fun k d -> Rearm (k, d)) nat delay);
        (2, map2 (fun k d -> Rearm_at (k, d)) nat delay);
        (1, map2 (fun e d -> Consume (e, d)) eng busy);
      ]
  in
  let kids = list_size (int_bound 3) leaf in
  let top =
    frequency
      [
        (4, map3 (fun e t ks -> At (e, t, ks)) eng time kids);
        (3, map3 (fun e d ks -> After (e, d, ks)) eng delay kids);
        (2, map2 (fun e ks -> Timer (e, ks)) eng kids);
        (2, map (fun k -> Cancel k) nat);
        (3, map2 (fun k d -> Rearm (k, d)) nat delay);
        (3, map2 (fun k d -> Rearm_at (k, d)) nat delay);
        (1, map2 (fun e d -> Consume (e, d)) eng busy);
        (1, map2 (fun e d -> Run_for (e, d)) eng (int_range (-3) 15));
        (2, map (fun k -> Steps k) (int_bound 6));
      ]
  in
  map (fun ops -> (n, ops)) (list_size (int_range 1 40) top)

type observed = {
  fired : int list;  (* timer ids, in firing order *)
  checkpoints : (int * int array * int64 array * int array) list;
      (* after each top-level op: how many have fired so far, and the
         pending count and clock of every engine, the clock read both
         boxed ([now]) and as an int ([now_ns]) *)
}

(* Timers are numbered in creation order; both sides create them in the
   same order because they run the same ops in the same order. *)
let run_engines (n, script) =
  let engines = Array.init n (fun _ -> Engine.create ()) in
  let timers = ref [||] and fired = ref [] and checkpoints = ref [] in
  let owners = ref [||] (* each timer's engine *) in
  let runs = Hashtbl.create 16 in
  let step () =
    if n = 1 then Engine.step engines.(0) else Engine.step_group engines
  in
  let rec exec = function
    | At (e, t, ops) -> add e (Engine.at engines.(e) (Int64.of_int t)) ops
    | After (e, d, ops) -> add e (Engine.after engines.(e) (Int64.of_int d)) ops
    | Timer (e, ops) -> add e (Engine.timer engines.(e)) ops
    | Cancel k -> with_timer k Engine.cancel
    | Rearm (k, d) -> with_timer k (fun tm -> Engine.rearm tm (Int64.of_int d))
    | Rearm_at (k, d) ->
        let m = Array.length !timers in
        if m > 0 then
          let e = engines.(!owners.(k mod m)) in
          Engine.rearm_at !timers.(k mod m) (Engine.now_ns e + d)
    | Consume (e, d) -> Engine.consume engines.(e) (Int64.of_int d)
    | Run_for (e, d) -> Engine.run_for engines.(e) (Int64.of_int d)
    | Steps k ->
        for _ = 1 to k do
          ignore (step ())
        done
  and add e make ops =
    let id = Array.length !timers in
    owners := Array.append !owners [| e |];
    timers := Array.append !timers [| make (fun () -> fire id ops) |]
  and with_timer k f =
    let m = Array.length !timers in
    if m > 0 then f !timers.(k mod m)
  and fire id ops =
    fired := id :: !fired;
    let r = Option.value ~default:0 (Hashtbl.find_opt runs id) in
    Hashtbl.replace runs id (r + 1);
    if r < op_runs then List.iter exec ops
  in
  let checkpoint () =
    checkpoints :=
      ( List.length !fired,
        Array.map Engine.pending engines,
        Array.map Engine.now engines,
        Array.map Engine.now_ns engines )
      :: !checkpoints
  in
  List.iter
    (fun op ->
      exec op;
      checkpoint ())
    script;
  if n = 1 then Engine.run engines.(0) else Engine.run_group engines;
  checkpoint ();
  { fired = List.rev !fired; checkpoints = List.rev !checkpoints }

type mev = {
  id : int;
  eng : int;
  ops : op list;
  mutable time : int;
  mutable ins : int;  (* global insertion order: per engine, it is the seq *)
  mutable queued : bool;
  mutable runs : int;  (* firings so far *)
}

let run_model (n, script) =
  let clocks = Array.make n 0 in
  let timers = ref [||] and fired = ref [] and next_ins = ref 0 in
  let checkpoints = ref [] in
  let make e ops =
    let ev =
      {
        id = Array.length !timers;
        eng = e;
        ops;
        time = 0;
        ins = 0;
        queued = false;
        runs = 0;
      }
    in
    timers := Array.append !timers [| ev |];
    ev
  in
  (* (Re)queue under a fresh insertion order, clamped to the clock. *)
  let arm ev t =
    ev.time <- Int.max t clocks.(ev.eng);
    ev.ins <- !next_ins;
    incr next_ins;
    ev.queued <- true
  in
  let key ev = (ev.time, ev.eng, ev.ins) in
  let least ok =
    Array.fold_left
      (fun best ev ->
        if not (ev.queued && ok ev) then best
        else
          match best with
          | Some b when compare (key b) (key ev) <= 0 -> best
          | _ -> Some ev)
      None !timers
  in
  let rec exec = function
    | At (e, t, ops) -> arm (make e ops) t
    | After (e, d, ops) -> arm (make e ops) (clocks.(e) + Int.max 0 d)
    | Timer (e, ops) -> ignore (make e ops)
    | Cancel k -> with_timer k (fun ev -> ev.queued <- false)
    | Rearm (k, d) ->
        with_timer k (fun ev -> arm ev (clocks.(ev.eng) + Int.max 0 d))
    | Rearm_at (k, d) ->
        (* cancel, then [at] the absolute time: clamped to the clock *)
        with_timer k (fun ev -> arm ev (clocks.(ev.eng) + d))
    | Consume (e, d) -> clocks.(e) <- clocks.(e) + Int.max 0 d
    | Run_for (e, d) ->
        let deadline = clocks.(e) + Int.max 0 d in
        let rec drain () =
          match least (fun ev -> ev.eng = e && ev.time <= deadline) with
          | Some ev ->
              fire ev;
              drain ()
          | None -> ()
        in
        drain ();
        clocks.(e) <- Int.max clocks.(e) deadline
    | Steps k ->
        for _ = 1 to k do
          ignore (step ())
        done
  and with_timer k f =
    let m = Array.length !timers in
    if m > 0 then f !timers.(k mod m)
  and fire ev =
    ev.queued <- false;
    clocks.(ev.eng) <- Int.max clocks.(ev.eng) ev.time;
    fired := ev.id :: !fired;
    ev.runs <- ev.runs + 1;
    if ev.runs <= op_runs then List.iter exec ev.ops
  and step () =
    match least (fun _ -> true) with
    | None -> false
    | Some ev ->
        fire ev;
        true
  in
  let checkpoint () =
    let pending = Array.make n 0 in
    Array.iter
      (fun ev -> if ev.queued then pending.(ev.eng) <- pending.(ev.eng) + 1)
      !timers;
    checkpoints :=
      ( List.length !fired,
        pending,
        Array.map Int64.of_int clocks,
        Array.copy clocks )
      :: !checkpoints
  in
  List.iter
    (fun op ->
      exec op;
      checkpoint ())
    script;
  while step () do
    ()
  done;
  checkpoint ();
  { fired = List.rev !fired; checkpoints = List.rev !checkpoints }

let engine_model_prop =
  QCheck.Test.make ~name:"engines match the reference model" ~count:500
    (QCheck.make gen_script ~print:(fun (n, ops) ->
         Printf.sprintf "%d engines: %s" n (pp_ops ops)))
    (fun script -> run_engines script = run_model script)

(* ---------------- Engine: allocation ----------------

   Scheduling allocates the event record and nothing else; stepping,
   alone or in a group, allocates nothing. Times are literals and the
   thunk is made once, so the only allocation [at] can do is its own. *)

let event_words = 6 (* a 5-field record plus its header *)

let noop () = ()

let engine_alloc_at_and_step () =
  let e = Engine.create () in
  (* warm: grow the heap past what the measured rounds need *)
  for _ = 1 to 2000 do
    ignore (Engine.at e 10L noop)
  done;
  Engine.run e;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Engine.at e 20L noop);
    ignore (Engine.at e 15L noop)
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "at: one event record each"
    (float_of_int (2000 * event_words))
    words;
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    ignore (Engine.step e)
  done;
  let words = Gc.minor_words () -. before in
  check_int "all fired" 0 (Engine.pending e);
  check (Alcotest.float 0.) "step allocates nothing" 0. words

let engine_alloc_step_group () =
  let engines = Array.init 4 (fun _ -> Engine.create ()) in
  let fill () =
    Array.iteri
      (fun i e ->
        for k = 1 to 500 do
          let tm = Engine.at e (if k land 1 = 0 then 30L else 40L) noop in
          if (k + i) mod 7 = 0 then Engine.cancel tm
        done)
      engines
  in
  fill ();
  Engine.run_group engines;
  fill ();
  let before = Gc.minor_words () in
  while Engine.step_group engines do
    ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "drained" 0 (Array.fold_left (fun a e -> a + Engine.pending e) 0 engines);
  check (Alcotest.float 0.) "step_group allocates nothing" 0. words

(* A handle is the record [timer] made once: re-arming it after a
   delay or at an absolute time, cancelling and asking after it,
   reading the int clock and charging CPU time allocate nothing;
   [after], like [at], allocates its one record. *)
let engine_alloc_handles () =
  let e = Engine.create () in
  let tms = Array.init 64 (fun _ -> Engine.timer e noop) in
  (* warm: the heap has held every handle at once *)
  Array.iter (fun tm -> Engine.rearm tm 5L) tms;
  Engine.run e;
  let queued = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 3999 do
    let tm = tms.(i land 63) in
    Engine.rearm tm (if i land 1 = 0 then 10L else 20L);
    if Engine.scheduled tm then incr queued;
    (* in the past, at now and ahead *)
    let tm = tms.((i * 5) land 63) in
    Engine.rearm_at tm (Engine.now_ns e + (i mod 3) - 1);
    if Engine.scheduled tm then incr queued;
    if i mod 3 = 0 then Engine.cancel tms.((i * 7) land 63);
    Engine.consume e 1L
  done;
  let words = Gc.minor_words () -. before in
  check_int "every re-armed handle queued" 8000 !queued;
  check (Alcotest.float 0.)
    "rearm, rearm_at, now_ns, scheduled, cancel, consume allocate nothing" 0.
    words;
  for _ = 1 to 1000 do
    ignore (Engine.after e 10L noop)
  done;
  Engine.run e;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Engine.after e 10L noop)
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "after: one event record each"
    (float_of_int (1000 * event_words))
    words

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
          Alcotest.test_case "far future saturates" `Quick
            engine_far_future_saturates;
          Alcotest.test_case "timer handle" `Quick engine_timer_handle;
          Alcotest.test_case "rearm draws a fresh seq" `Quick
            engine_rearm_fresh_seq;
          Alcotest.test_case "rearm from own thunk" `Quick
            engine_rearm_from_own_thunk;
          Alcotest.test_case "deterministic" `Quick engine_deterministic;
          Alcotest.test_case "at allocates one record, step none" `Quick
            engine_alloc_at_and_step;
          Alcotest.test_case "step_group allocates nothing" `Quick
            engine_alloc_step_group;
          Alcotest.test_case "handles allocate nothing" `Quick
            engine_alloc_handles;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick heap_order;
          Alcotest.test_case "fifo ties" `Quick heap_fifo_ties;
          Alcotest.test_case "min peek" `Quick heap_min_peek;
        ] );
      qsuite "heap-props" [ heap_sorted_prop ];
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
      qsuite "engine-props" [ engine_timer_stress_prop; engine_model_prop ];
      ( "cost",
        [
          Alcotest.test_case "copy matches paper" `Quick cost_copy_matches_paper;
          Alcotest.test_case "monotone" `Quick cost_monotone;
          Alcotest.test_case "bypass cheaper" `Quick cost_bypass_cheaper_than_kernel;
          Alcotest.test_case "cycle conversion" `Quick cost_cycles;
        ] );
    ]
