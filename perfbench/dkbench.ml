(* The repository benchmark: one workload per process.

     dkbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   A run builds a fresh world per round from the seed and repeats
   rounds until [--seconds] of host time have passed (at least two, so
   the determinism self-check has something to compare). End-to-end
   metrics come from untraced rounds; with [--trace 1] every other
   round is traced and the per-layer metrics are printed instead. The
   last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   When the correctness gate fails the report is still printed, then
   the run fails with an exception (exit code 2). *)

module Scenario = Dk_loadgen.Scenario
module Metrics = Dk_obs.Metrics

type kind = Closed of Closed.cfg | Open of Openloop.cfg

(* Offered rates and ladder rungs are frozen absolute numbers: 670 kops/s
   is 0.8x the 4-shard kv capacity and 1,375 kops/s 0.8x the 2-shard
   offload capacity, as calibrated when the benchmark was defined. *)
let workloads =
  [
    ("echo-64", Closed { Closed.size = 64; window = 1; warmup = 1_000; ops = 10_000; batch = 500 });
    ( "stream-16k",
      Closed { Closed.size = 16_384; window = 2; warmup = 40; ops = 10_000; batch = 100 } );
    ( "kv-open-loop",
      Open
        {
          Openloop.scn = { Scenario.base with name = "kv-open-loop"; duration_ms = 45 };
          shards = 4;
          rate = 670e3;
          ladder = [ 450.; 550.; 650.; 800. ];
          seeds = 4;
        } );
    ( "kv-offload",
      Open
        {
          Openloop.scn =
            {
              Scenario.base with
              name = "kv-offload";
              duration_ms = 25;
              offload = true;
              offload_hit = 0.9;
            };
          shards = 2;
          rate = 1375e3;
          ladder = [ 1200.; 1400.; 1550.; 1750. ];
          seeds = 8;
        } );
  ]

(* Self-test scale: the same shapes, a few hundred ops. *)
let tiny = function
  | Closed c -> Closed { c with Closed.warmup = min c.warmup 20; ops = 300; batch = 50 }
  | Open o ->
      Open
        {
          o with
          Openloop.scn = { o.scn with Scenario.conns = 10_000; duration_ms = 1 };
          ladder = [ List.hd o.ladder ];
          seeds = min 2 o.seeds;
        }

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ns_per_op", "ns");
    ("host_words_per_op", "words");
    ("host_peak_heap_mib", "MiB");
    ("vlat_p50_ns", "virtual_ns");
    ("vlat_p999_ns", "virtual_ns");
    ("vgoodput_kops", "kops/virtual_s");
    ("vgoodput_mib_s", "MiB/virtual_s");
    ("vcpu_ns_per_op", "virtual_ns");
    ("vslo_kops", "kops");
  ]

let per_layer =
  [
    ("core.push.ns", "ns");
    ("core.pop.ns", "ns");
    ("core.wait.ns", "ns");
    ("core.sga.ns", "ns");
    ("core.push.words", "words");
    ("core.sga.words", "words");
    ("core.tokens_per_op", "count");
    ("mem.allocs_per_op", "count");
    ("mem.inflight_hwm_bytes", "bytes");
    ("mem.pool.hit_ratio", "ratio");
    ("net.tcp.segs_per_op", "count");
    ("net.tcp.retransmits", "count");
    ("net.stack.decode_errors", "count");
    ("net.framing.ns_per_msg", "ns");
    ("net.framing.words_per_msg", "words");
    ("net.framing.backlog_hwm", "bytes");
    ("device.nic.frames_per_op", "count");
    ("device.nic.doorbells_per_op", "count");
    ("device.nic.rx_dropped", "count");
    ("device.fabric.lost", "count");
    ("device.offload.hit_ratio", "ratio");
    ("device.ctrl.doorbells_per_write", "count");
    ("device.prog.ns_per_frame", "ns");
    ("sim.events_per_op", "count");
    ("sim.step.ns", "ns");
    ("sim.pending.hwm", "count");
    ("sim.pending.mean", "count");
    ("shard.ops.max_over_mean", "ratio");
    ("shard.vcpu.max_over_mean", "ratio");
    ("apps.loadgen.self_s", "s");
    ("apps.loadgen.shed", "count");
    ("apps.loadgen.stranded", "count");
    ("apps.loadgen.qdepth_hwm", "count");
    ("apps.kv.host_served_frac", "ratio");
    ("setup.world_s", "s");
    ("setup.connect_s", "s");
    ("setup.preload_s", "s");
    ("setup.warmup_s", "s");
    ("trace.overhead_frac", "ratio");
    ("trace.accounted_frac", "ratio");
  ]

(* ---- command line ---- *)

let usage () =
  invalid_arg
    ("usage: dkbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--nproc N] \
      [--out DIR]; workloads: "
    ^ String.concat ", " (List.map fst workloads))

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;
  nproc : string;
  out : string option;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: tl -> go { a with workload = v } tl
    | "--seed" :: v :: tl -> go { a with seed = int_of_string v } tl
    | "--seconds" :: v :: tl -> go { a with seconds = float_of_string v } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { a with traced = v = "1" } tl
    | "--tiny" :: tl -> go { a with tiny = true } tl
    | "--nproc" :: v :: tl -> go { a with nproc = v } tl
    | "--out" :: v :: tl -> go { a with out = Some v } tl
    | _ -> usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = 1;
          seconds = 10.0;
          traced = false;
          tiny = false;
          nproc = "unknown";
          out = None;
        }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if not (List.mem_assoc a.workload workloads) then usage ();
  a

(* ---- the run ---- *)

type sample = {
  r : Round.t;
  extra : (string * int) list;
  index : int;
  seed : int;
  traced : bool;
}

(* Open-loop tails depend on the arrival draw, so their rounds cycle
   over several seeds derived from the run's seed and the virtual-clock
   metrics pool the first cycle (over 100k latency samples). Closed
   loops are seed-insensitive in virtual time and use the run's seed
   alone. *)
let seeds_per_run = function Closed _ -> 1 | Open o -> o.Openloop.seeds
let round_seed seed k = seed + (k * 1_000_003)

(* Each round starts from a collected heap, so no round's set-up or
   window pays for collecting an earlier round's garbage. *)
let run_round kind ~index ~seed ~traced =
  Gc.full_major ();
  Metrics.reset Metrics.default;
  Trace.on := traced;
  Trace.enter Spans.round;
  let r, extra =
    match kind with Closed c -> Closed.round c ~seed | Open o -> Openloop.round o ~seed
  in
  Trace.leave ();
  Trace.on := false;
  { r; extra; index; seed; traced }

(* Rounds with the same seed and mode do the same simulated work, so
   their deterministic figures must agree exactly with the first such
   round. Round 0 also pays the registry's first-time allocations, so
   only its words are exempt. *)
let determinism samples =
  List.concat_map
    (fun s ->
      match List.find_opt (fun f -> f.seed = s.seed && f.traced = s.traced) samples with
      | Some f when f.index < s.index ->
          List.filter_map
            (fun (n, v) ->
              if f.index = 0 && n = "host_words_per_op" then None
              else if List.assoc_opt n s.r.Round.det = Some v then None
              else Some n)
            f.r.Round.det
      | _ -> [])
    samples
  |> List.sort_uniq compare

let det_of s n = match List.assoc_opt n s.r.Round.det with Some v -> v | None -> 0.0

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

let median_extra samples n =
  Round.median
    (List.filter_map
       (fun s -> Option.map float_of_int (List.assoc_opt n s.extra))
       samples)

let host_ns_per_op samples =
  Round.median (List.concat_map (fun s -> s.r.Round.batches) samples)

let fmt_float v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let json_metrics l =
  String.concat ","
    (List.map
       (fun (n, u, v) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (fmt_float v) u)
       l)

let () =
  let a = parse Sys.argv in
  let kind = List.assoc a.workload workloads in
  let kind = if a.tiny then tiny kind else kind in
  let gc = Gc.get () in
  Printf.printf
    "provenance: workload=%s seed=%d seconds=%g trace=%b nproc=%s ocaml=%s word_size=%d \
     gc{minor_heap_size=%d space_overhead=%d max_overhead=%d major_heap_increment=%d \
     allocation_policy=%d window_size=%d custom_major_ratio=%d custom_minor_ratio=%d \
     custom_minor_max_size=%d stack_limit=%d}\n%!"
    a.workload a.seed a.seconds a.traced a.nproc Sys.ocaml_version Sys.word_size
    gc.Gc.minor_heap_size gc.space_overhead gc.max_overhead gc.major_heap_increment
    gc.allocation_policy gc.window_size gc.custom_major_ratio gc.custom_minor_ratio
    gc.custom_minor_max_size gc.stack_limit;
  let t_start = Trace.now () in
  let budget = int_of_float (a.seconds *. 1e9) in
  let k = seeds_per_run kind in
  (* Machine speed, sampled between rounds, never inside a window. *)
  let refs = ref [ Calib.sample () ] in
  (* Extra set-ups of the closed-loop worlds, so setup_s is a median of
     several even when a round of a slow workload fills the run. *)
  let extra_setups =
    match kind with
    | Closed c ->
        List.init 5 (fun i ->
            let r = run_round (Closed { c with Closed.ops = 0 }) ~index:(-1 - i) ~seed:a.seed ~traced:false in
            refs := Calib.sample () :: !refs;
            r.r)
    | Open _ -> []
  in
  (* Untraced runs cycle the seeds; traced runs pair each untraced round
     with a traced one on the same seed. Enough rounds always run for
     the pooled cycle, the steady-state words and the repeat check. *)
  let plan i =
    if a.traced then (i mod 2 = 1, round_seed a.seed (i / 2 mod k))
    else (false, round_seed a.seed (i mod k))
  in
  let min_rounds = if a.traced then 2 * k else k + 1 in
  (* Peak heap over the fixed first rounds only, so it does not depend
     on how many rounds the host's speed let the run fit. *)
  let peak_heap = ref 0 in
  let rec rounds i acc =
    let elapsed = Trace.now () - t_start in
    if i >= min_rounds && (elapsed >= budget || i >= 1000) then List.rev acc
    else
      let traced, seed = plan i in
      let s = run_round kind ~index:i ~seed ~traced in
      (* about one reference sample per half second of window *)
      for _ = 0 to s.r.Round.window_ns / 500_000_000 do
        refs := Calib.sample () :: !refs
      done;
      if i = min_rounds - 1 then peak_heap := (Gc.quick_stat ()).Gc.top_heap_words;
      Printf.printf "round %d%s: seed=%d ops=%d setup=%.3fms window=%.3fms host_ns/op=%.1f errors=%d\n%!"
        i
        (if traced then " (traced)" else "")
        seed s.r.Round.ops
        (float_of_int s.r.setup_ns /. 1e6)
        (float_of_int s.r.window_ns /. 1e6)
        (float_of_int s.r.window_ns /. float_of_int (max 1 s.r.ops))
        (List.length s.r.errors);
      rounds (i + 1) (s :: acc)
  in
  let samples = rounds 0 [] in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  let first = List.hd samples in
  (* The pooled cycle: the first untraced round of each seed. *)
  let cycle = List.filteri (fun i _ -> i < k) untraced in
  let nondet = determinism samples in
  let errors =
    List.concat_map (fun (r : Round.t) -> r.errors) extra_setups
    @ List.concat_map (fun s -> s.r.Round.errors) samples
    @ List.map (fun n -> "not deterministic across rounds: " ^ n) nondet
    @ List.concat_map
        (fun s ->
          match List.find_opt (fun f -> f.seed = s.seed) samples with
          | Some f when f.r.Round.digest <> s.r.Round.digest ->
              [ Printf.sprintf "round %d received other inputs than round %d" s.index f.index ]
          | _ -> [])
        samples
  in
  let attempted = List.fold_left (fun a s -> a + s.r.Round.attempted) 0 samples in
  let failed = List.fold_left (fun a s -> a + s.r.Round.failed) 0 samples in
  let pooled_hist =
    List.fold_left
      (fun acc s ->
        match (acc, s.r.Round.hist) with
        | Some h, Some x -> Some (Dk_sim.Histogram.merge h x)
        | None, x -> x
        | h, None -> h)
      None cycle
  in
  let lat_samples, lat_q =
    match pooled_hist with
    | Some h ->
        ( Dk_sim.Histogram.count h,
          fun q -> Int64.to_float (Dk_sim.Histogram.quantile h q) )
    | None -> (int_of_float (det_of first "vlat_samples"), fun _ -> Float.nan)
  in
  Printf.printf "inputs digest: %s\n"
    (String.concat " " (List.map (fun s -> s.r.Round.digest) cycle));
  Printf.printf "latency samples: %d pooled over %d seed(s), %d beyond p99.9\n" lat_samples k
    (lat_samples - 1 - Round.rank lat_samples 0.999);
  Printf.printf "failed_frac: %d / %d\n" failed attempted;
  (* Host timings are reported at the reference's nominal speed. *)
  let speed = Calib.nominal_ns /. Round.median !refs in
  let raw_ns_per_op = host_ns_per_op untraced in
  let raw_setup =
    Round.median
      (List.map float_of_int
         (List.map (fun (r : Round.t) -> r.setup_ns) extra_setups
         @ List.map (fun s -> s.r.Round.setup_ns) samples))
    /. 1e9
  in
  Printf.printf "host speed: reference %.3f ms over %d samples (nominal %.3f), factor %.4f; raw \
                 host_ns_per_op %.1f, raw setup_s %.6f\n"
    (Round.median !refs /. 1e6) (List.length !refs) (Calib.nominal_ns /. 1e6) speed raw_ns_per_op
    raw_setup;
  let metrics, extra_errors =
    if not a.traced then begin
      let slo =
        match kind with
        | Closed _ -> det_of first "vslo_kops"
        | Open o -> Openloop.slo_kops o ~seed:a.seed
      in
      let heap = float_of_int (!peak_heap * (Sys.word_size / 8)) /. 1048576.0 in
      let v n = mean (List.map (fun s -> det_of s n) cycle) in
      (* Words are steady from round 1 on: one round per seed of the
         cycle, starting there. *)
      let words =
        mean
          (List.map
             (fun s -> det_of s "host_words_per_op")
             (List.filteri (fun i _ -> i >= 1 && i <= k) untraced))
      in
      ( [
          ("setup_s", raw_setup *. speed);
          ("host_ns_per_op", raw_ns_per_op *. speed);
          ("host_words_per_op", words);
          ("host_peak_heap_mib", heap);
          ("vlat_p50_ns", if k = 1 then v "vlat_p50_ns" else lat_q 0.5);
          ("vlat_p999_ns", if k = 1 then v "vlat_p999_ns" else lat_q 0.999);
          ("vgoodput_kops", v "vgoodput_kops");
          ("vgoodput_mib_s", v "vgoodput_mib_s");
          ("vcpu_ns_per_op", v "vcpu_ns_per_op");
          ("vslo_kops", slo);
        ],
        [] )
    end
    else begin
      let t = match traced with t :: _ -> t | [] -> first in
      let per id = Round.ratio (Trace.self_ns id) (Trace.count id) in
      let words id =
        if Trace.count id = 0 then 0.0 else Trace.self_words id /. float_of_int (Trace.count id)
      in
      let seed64 = Int64.of_int a.seed in
      let fr, pr, setup_parts =
        match kind with
        | Closed c ->
            let msgs =
              Array.init (min 20_000 (max 100 (33_554_432 / c.Closed.size))) (fun i ->
                  [ String.make c.size (Char.chr (97 + (i mod 26))) ])
            in
            ( Replay.framing msgs ~depth:c.window,
              Replay.no_prog,
              List.map
                (fun n -> (n, median_extra traced n /. 1e9))
                [ "setup.world_s"; "setup.connect_s"; "setup.preload_s"; "setup.warmup_s" ] )
        | Open o ->
            let fr =
              if o.scn.Scenario.offload then Replay.no_framing
              else Replay.framing (Replay.kv_messages o.scn ~seed:seed64 ~n:10_000) ~depth:1
            in
            let pr =
              if o.scn.Scenario.offload then Replay.prog o.scn ~seed:seed64 ~n:50_000
              else Replay.no_prog
            in
            let reps = List.init 3 (fun _ -> Replay.kv_setup o.scn ~shards:o.shards ~seed:a.seed) in
            ( fr,
              pr,
              List.map
                (fun n ->
                  ( n,
                    Round.median (List.map (fun r -> float_of_int (List.assoc n r)) reps) /. 1e9 ))
                [ "setup.world_s"; "setup.connect_s"; "setup.preload_s"; "setup.warmup_s" ] )
      in
      let untraced_ns = raw_ns_per_op in
      let traced_ns = host_ns_per_op traced in
      let container =
        match kind with Closed _ -> Spans.window | Open _ -> Spans.drive
      in
      let accounted =
        let total = Trace.total_ns container in
        if total = 0 then 0.0
        else 1.0 -. (float_of_int (Trace.self_ns container) /. float_of_int total)
      in
      let d n = det_of t n in
      ( [
          ("core.push.ns", per Spans.push);
          ("core.pop.ns", per Spans.pop);
          ("core.wait.ns", per Spans.wait);
          ("core.sga.ns", per Spans.sga);
          ("core.push.words", words Spans.push);
          ("core.sga.words", words Spans.sga);
          ("core.tokens_per_op", d "core.tokens_per_op");
          ("mem.allocs_per_op", d "mem.allocs_per_op");
          ("mem.inflight_hwm_bytes", d "mem.inflight_hwm_bytes");
          ("mem.pool.hit_ratio", d "mem.pool.hit_ratio");
          ("net.tcp.segs_per_op", d "net.tcp.segs_per_op");
          ("net.tcp.retransmits", d "net.tcp.retransmits");
          ("net.stack.decode_errors", d "net.stack.decode_errors");
          ("net.framing.ns_per_msg", fr.Replay.ns_per_msg);
          ("net.framing.words_per_msg", fr.words_per_msg);
          ("net.framing.backlog_hwm", float_of_int fr.backlog_hwm);
          ("device.nic.frames_per_op", d "device.nic.frames_per_op");
          ("device.nic.doorbells_per_op", d "device.nic.doorbells_per_op");
          ("device.nic.rx_dropped", d "device.nic.rx_dropped");
          ("device.fabric.lost", d "device.fabric.lost");
          ("device.offload.hit_ratio", d "device.offload.hit_ratio");
          ("device.ctrl.doorbells_per_write", d "device.ctrl.doorbells_per_write");
          ("device.prog.ns_per_frame", pr.Replay.ns_per_frame);
          ("sim.events_per_op", d "sim.events_per_op");
          ("sim.step.ns", Round.ratio (Trace.total_ns Spans.step) (Trace.count Spans.step));
          ("sim.pending.hwm", d "sim.pending.hwm");
          ("sim.pending.mean", d "sim.pending.mean");
          ("shard.ops.max_over_mean", d "shard.ops.max_over_mean");
          ("shard.vcpu.max_over_mean", d "shard.vcpu.max_over_mean");
          ("apps.loadgen.self_s", median_extra traced "apps.loadgen.self_s" /. 1e9);
          ("apps.loadgen.shed", d "apps.loadgen.shed");
          ("apps.loadgen.stranded", d "apps.loadgen.stranded");
          ("apps.loadgen.qdepth_hwm", d "apps.loadgen.qdepth_hwm");
          ("apps.kv.host_served_frac", d "apps.kv.host_served_frac");
        ]
        @ setup_parts
        @ [
            ("trace.overhead_frac", if untraced_ns > 0.0 then (traced_ns /. untraced_ns) -. 1.0 else 0.0);
            ("trace.accounted_frac", accounted);
          ],
        (if fr.mismatches > 0 then
           [ Printf.sprintf "framing replay: %d messages decoded wrong" fr.mismatches ]
         else [])
        @
        if pr.wrong > 0 then [ Printf.sprintf "prog replay: %d verdicts wrong" pr.wrong ]
        else [] )
    end
  in
  let errors = errors @ extra_errors in
  let units = if a.traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (n, u) ->
        let v = match List.assoc_opt n metrics with Some v -> v | None -> Float.nan in
        (n, u, v))
      units
  in
  let errors =
    errors
    @ List.filter_map
        (fun (n, _, v) ->
          if Float.is_finite v then None else Some (n ^ " was not measured"))
        metrics
  in
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics in
  List.iter (fun (n, u, v) -> Printf.printf "%-34s %20s %s\n" n (fmt_float v) u) metrics;
  List.iter (fun e -> Printf.printf "CORRECTNESS: %s\n" e) errors;
  (match a.out with
  | Some dir when a.traced ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" a.workload a.seed) in
      Trace.write path
        ~header:
          (Printf.sprintf "{\"workload\":%S,\"seed\":%d,\"nproc\":%S,\"ocaml\":%S}" a.workload a.seed
             a.nproc Sys.ocaml_version);
      Printf.printf "trace written to %s\n" path
  | _ -> ());
  let correct = errors = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (max 1 attempted) failed (json_metrics metrics);
  if not correct then failwith "correctness gate failed"
