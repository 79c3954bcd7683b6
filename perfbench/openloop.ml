(* Open-loop kv workloads through the scenario harness.

   [Loadgen.run] builds the sharded world, offers Poisson arrivals at a
   fixed absolute rate and hands the engine group to [drive]; the
   benchmark's [drive] is its own [Engine.step_group] loop, so the
   timed window starts at the first event after set-up and each step
   is a span in the traced run. Rates are fixed numbers, never a
   calibration of the code under test. *)

module Engine = Dk_sim.Engine
module Histogram = Dk_sim.Histogram
module Loadgen = Dk_loadgen.Loadgen
module Scenario = Dk_loadgen.Scenario
module Metrics = Dk_obs.Metrics
module Shard = Dk_shard_rt.Shard

type cfg = {
  scn : Scenario.t;
  shards : int;
  rate : float;  (** offered ops/s *)
  ladder : float list;  (** offered kops/s rungs for vslo_kops *)
  seeds : int;  (** seeds per run whose latencies are pooled *)
}

(* A ladder rung runs long enough for 30,000 arrivals, so its p99.9
   rests on thirty samples and a rung's verdict rarely flips with the
   seed. *)
let rung_ms kops = int_of_float (Float.ceil (30_000.0 /. kops)) + 1

let lat_q (h : Histogram.t) q = Int64.to_float (Histogram.quantile h q)

(* Every request offered was admitted or shed, and no request completed
   twice or was invented. An admitted request that never completes is
   stranded: [Loadgen.run] closes a station's idle trunks at the
   deadline event, and an arrival whose engine clock has already run
   past the deadline (CPU charged by earlier events) is admitted after
   that, into a queue no trunk will drain. Stranded requests are
   counted as failed (timed-out) ops, not as a broken run. *)
let conservation (s : Loadgen.stats) =
  let check label offered admitted shed fin =
    (if offered <> admitted + shed then
       [ Printf.sprintf "%s: offered %d <> admitted %d + shed %d" label offered admitted shed ]
     else [])
    @
    if fin > admitted then
      [ Printf.sprintf "%s: completed %d > admitted %d" label fin admitted ]
    else []
  in
  check "all shards" s.Loadgen.l_offered s.l_admitted s.l_shed s.l_done
  @ List.concat_map
      (fun (p : Loadgen.shard_stats) ->
        check (Printf.sprintf "shard %d" p.ls_shard) p.ls_offered p.ls_admitted p.ls_shed
          p.ls_done)
      (Array.to_list s.l_per_shard)
  @
  if s.l_offload_hits > s.l_offload_lookups then
    [ Printf.sprintf "offload hits %d > lookups %d" s.l_offload_hits s.l_offload_lookups ]
  else []

type window = {
  mutable setup_end : int;
  mutable drive_end : int;
  mutable h0 : int;
  mutable h1 : int;
  mutable words : float;
  mutable steps : int;
  mutable pend_n : int;
  mutable pend_sum : int;
  mutable pend_hwm : int;
  mutable cpu : float array;  (** per-engine consumed ns over the window *)
  mutable batches : float list;  (** host ns/op per [batch_ops] completions *)
  mutable s0 : Snap.t option;
  mutable s1 : Snap.t option;
}

let sum_pending engines = Array.fold_left (fun a e -> a + Engine.pending e) 0 engines

(* Host time is sampled every [batch_ops] completions, read from the
   harness's own per-station completion counters. *)
let batch_ops = 1_000

let completed counters =
  let n = ref 0 in
  for i = 0 to Array.length counters - 1 do
    n := !n + Metrics.value counters.(i)
  done;
  !n

let drive w engines =
  w.setup_end <- Trace.now ();
  Trace.enter Spans.drive;
  w.s0 <- Some (Snap.take ());
  let n = Array.length engines in
  let counters =
    Array.init n (fun i ->
        Metrics.counter
          (if n = 1 then "apps.loadgen.completed"
           else Shard.obs_name i "apps.loadgen.completed"))
  in
  let cpu0 = Array.map Engine.consumed engines in
  let w0 = Gc.minor_words () in
  w.h0 <- Trace.now ();
  let steps = ref 0 in
  let base = ref 0 and last = ref w.h0 in
  let continue = ref true in
  while !continue do
    if !Trace.on then begin
      let p = sum_pending engines in
      w.pend_n <- w.pend_n + 1;
      w.pend_sum <- w.pend_sum + p;
      if p > w.pend_hwm then w.pend_hwm <- p
    end;
    Trace.enter Spans.step;
    continue := Engine.step_group engines;
    Trace.leave ();
    incr steps;
    if !steps land 63 = 0 then begin
      let fin = completed counters in
      if fin - !base >= batch_ops then begin
        let t = Trace.now () in
        w.batches <- (float_of_int (t - !last) /. float_of_int (fin - !base)) :: w.batches;
        base := fin;
        last := t
      end
    end
  done;
  w.h1 <- Trace.now ();
  w.words <- Gc.minor_words () -. w0;
  w.steps <- !steps - 1;
  w.cpu <- Array.mapi (fun i e -> Int64.to_float (Int64.sub (Engine.consumed e) cpu0.(i))) engines;
  w.s1 <- Some (Snap.take ());
  Trace.leave ();
  w.drive_end <- Trace.now ()

let round cfg ~seed =
  let w =
    {
      setup_end = 0;
      drive_end = 0;
      h0 = 0;
      h1 = 0;
      words = 0.0;
      steps = 0;
      pend_n = 0;
      pend_sum = 0;
      pend_hwm = 0;
      cpu = [||];
      batches = [];
      s0 = None;
      s1 = None;
    }
  in
  let t0 = Trace.now () in
  Trace.enter Spans.loadgen;
  let s =
    Loadgen.run ~drive:(drive w) ~offered_rate:cfg.rate ~scn:cfg.scn ~shards:cfg.shards
      ~seed:(Int64.of_int seed) ()
  in
  Trace.leave ();
  let t1 = Trace.now () in
  let s0, s1 =
    match (w.s0, w.s1) with Some a, Some b -> (a, b) | _ -> failwith "drive never ran"
  in
  let ops = s.Loadgen.l_done in
  let fops = float_of_int (max 1 ops) in
  let dur_s = Int64.to_float s.l_duration_ns /. 1e9 in
  let writes = ops - s.l_offload_lookups in
  let shed = s.l_shed in
  let qhwm =
    Array.fold_left (fun a (p : Loadgen.shard_stats) -> max a p.ls_qdepth_hwm) 0 s.l_per_shard
  in
  let det =
    [
      ("vlat_p50_ns", lat_q s.l_lat 0.5);
      ("vlat_p999_ns", lat_q s.l_lat 0.999);
      ("vlat_samples", float_of_int (Histogram.count s.l_lat));
      ("vgoodput_kops", s.l_goodput /. 1e3);
      ( "vgoodput_mib_s",
        float_of_int (s.l_inwin * cfg.scn.Scenario.value_size) /. dur_s /. 1048576.0 );
      ("vcpu_ns_per_op", Array.fold_left ( +. ) 0.0 w.cpu /. fops);
      ("host_words_per_op", w.words /. fops);
      ("sim.events_per_op", Round.ratio w.steps ops);
      ( "shard.ops.max_over_mean",
        Round.max_over_mean
          (Array.map (fun (p : Loadgen.shard_stats) -> float_of_int p.ls_done) s.l_per_shard) );
      ("shard.vcpu.max_over_mean", Round.max_over_mean w.cpu);
      ("apps.loadgen.shed", float_of_int shed);
      ("apps.loadgen.stranded", float_of_int (s.l_admitted - ops));
      ("apps.loadgen.qdepth_hwm", float_of_int qhwm);
      ( "apps.kv.host_served_frac",
        Round.ratio (ops - if s.l_offload then s.l_offload_hits else 0) ops );
      ("device.offload.hit_ratio", Round.ratio s.l_offload_hits s.l_offload_lookups);
      ( "device.ctrl.doorbells_per_write",
        if s.l_offload then Round.ratio (Snap.delta s0 s1 "nic.ctrl.doorbells") writes else 0.0 );
    ]
    @ Layers.counts ~ops s0 s1
  in
  let det =
    if !Trace.on then
      det
      @ [
          ("sim.pending.hwm", float_of_int w.pend_hwm);
          ("sim.pending.mean", Round.ratio w.pend_sum w.pend_n);
        ]
    else det
  in
  ( {
      Round.ops;
      attempted = s.l_offered;
      failed = s.l_offered - ops;
      setup_ns = w.setup_end - t0;
      (* a window shorter than one batch is its own sample *)
      batches = (if w.batches = [] then [ float_of_int (w.h1 - w.h0) /. fops ] else w.batches);
      window_ns = w.h1 - w.h0;
      det;
      errors = conservation s @ Layers.errors s0 s1;
      digest = Printf.sprintf "0x%016Lx" s.l_digest;
      hist = Some s.l_lat;
    },
    [ ("apps.loadgen.self_s", t1 - t0 - (w.drive_end - w.setup_end)) ] )

(* Highest rung whose p99.9 meets the objective with nothing shed. A
   stranded request never completes, so it ranks above every completed
   one when the p99.9 is taken over all admitted requests. Virtual-clock
   only, so one pass per run suffices. *)
let slo_kops cfg ~seed =
  List.fold_left
    (fun best kops ->
      let scn = { cfg.scn with Scenario.duration_ms = rung_ms kops } in
      let s =
        Loadgen.run ~offered_rate:(kops *. 1e3) ~scn ~shards:cfg.shards
          ~seed:(Int64.of_int seed) ()
      in
      let fin = Histogram.count s.Loadgen.l_lat in
      let rank = int_of_float (Float.ceil (0.999 *. float_of_int s.l_admitted)) in
      let ok =
        s.l_shed = 0 && rank <= fin
        && lat_q s.l_lat (float_of_int rank /. float_of_int (max 1 fin)) <= Round.slo_ns
      in
      if ok && kops > best then kops else best)
    0.0 cfg.ladder
