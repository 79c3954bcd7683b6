(* dk_loadgen: the open-loop scenario harness (E15, `demi scenario`).

   What must stay true, in order of importance:

   1. Determinism — same (scenario, shards, seed) renders the same
      stats JSON byte for byte. The CI percentile gate and the E15
      baseline both stand on this.
   2. The open-loop invariant — the offered stream (arrival times,
      connection ids, keys, op mix) is decided by seeded RNG streams
      the service side never touches. Slowing the datapath down must
      not change what was offered, only what happened to it.
   3. Conservation and bounded memory under overload — every offered
      request is admitted or shed (offered = admitted + dropped),
      admitted work completes once the run drains, and the pending
      queue never exceeds the scenario's qcap.

   Everything runs at Scenario.smoke scale (10^4 conns, <=8ms virtual)
   so the whole suite is CI-cheap; the @scenario alias runs exactly
   this binary. *)

module Loadgen = Dk_loadgen.Loadgen
module Scenario = Dk_loadgen.Scenario
module Arrivals = Dk_loadgen.Arrivals
module Workload = Dk_apps.Workload
module Engine = Dk_sim.Engine
module Rng = Dk_sim.Rng
module Metrics = Dk_obs.Metrics

let seed = 42L

let scn name =
  match Scenario.find name with
  | Some s -> Scenario.smoke s
  | None -> Alcotest.failf "scenario %s missing from catalogue" name

(* ---- 1. determinism ---- *)

let test_same_seed_byte_identical () =
  let go () =
    Loadgen.stats_json (Loadgen.run ~scn:(scn "poisson-steady") ~shards:2 ~seed ())
  in
  let a = go () and b = go () in
  Alcotest.(check string) "same seed, same stats JSON" a b

let test_seed_changes_digest () =
  let digest s =
    (Loadgen.run ~offered_rate:200_000.0 ~scn:(scn "poisson-steady") ~shards:2
       ~seed:s ())
      .Loadgen.l_digest
  in
  Alcotest.(check bool) "different seed, different offered stream" false
    (Int64.equal (digest 1L) (digest 2L))

(* ---- 2. open-loop invariant ---- *)

(* Same seed and offered rate, but the second world serves 16x larger
   values, so every service-side timing changes. The offered stream —
   witnessed by the digest, which folds (relative arrival time, conn,
   key) for every offered request — and the offered count must not
   move. A closed-loop generator fails this by construction: its
   arrivals wait on completions. *)
let test_offered_stream_independent_of_service () =
  let run value_size =
    let s = { (scn "poisson-steady") with value_size } in
    Loadgen.run ~offered_rate:300_000.0 ~scn:s ~shards:2 ~seed ()
  in
  let fast = run 64 and slow = run 1024 in
  Alcotest.(check bool) "service got slower (else the test tests nothing)"
    true
    Dk_sim.Histogram.(
      Int64.compare (quantile slow.Loadgen.l_lat 0.5)
        (quantile fast.Loadgen.l_lat 0.5)
      > 0);
  Alcotest.(check int) "offered count unchanged" fast.Loadgen.l_offered
    slow.Loadgen.l_offered;
  Alcotest.(check bool) "offered digest unchanged" true
    (Int64.equal fast.Loadgen.l_digest slow.Loadgen.l_digest)

(* ---- 3. N=1 shard == single engine ---- *)

let test_single_shard_is_single_engine () =
  let go drive =
    Loadgen.stats_json
      (Loadgen.run ?drive ~offered_rate:200_000.0 ~scn:(scn "poisson-steady")
         ~shards:1 ~seed ())
  in
  let grouped = go None in
  let direct = go (Some (fun engines -> Engine.run engines.(0))) in
  Alcotest.(check string)
    "run_group over one shard == Engine.run on its engine" grouped direct

(* ---- 4. distribution sanity (qcheck) ---- *)

let counts_of wl ~keys ~draws =
  let c = Array.make keys 0 in
  for _ = 1 to draws do
    let k = Workload.next_key wl in
    c.(k) <- c.(k) + 1
  done;
  c

let zipf_skew =
  QCheck.Test.make ~count:30 ~name:"zipf skews, uniform does not"
    QCheck.(map Int64.of_int (int_range 1 100_000))
    (fun s ->
      let keys = 256 and draws = 4096 in
      let zipf =
        counts_of (Workload.create ~seed:s (Workload.Zipf { n = keys; theta = 0.99 }))
          ~keys ~draws
      and unif =
        counts_of (Workload.create ~seed:s (Workload.Uniform keys)) ~keys ~draws
      in
      let max_of = Array.fold_left max 0 in
      (* Zipf theta=0.99 concentrates ~11% of draws on the hottest key;
         uniform's hottest is ~1/256 plus noise. 4x separates them with
         huge margin for any seed. *)
      max_of zipf > 4 * max_of unif)

let arrival_gaps_positive =
  QCheck.Test.make ~count:50 ~name:"arrival times strictly advance"
    QCheck.(map Int64.of_int (int_range 1 100_000))
    (fun s ->
      let specs =
        [
          Arrivals.Poisson;
          Arrivals.On_off
            { on_mean_ns = 50_000.0; off_mean_ns = 100_000.0; alpha = 1.5 };
        ]
      in
      List.for_all
        (fun spec ->
          let a = Arrivals.create ~spec ~rng:(Rng.create s) in
          let now = ref 0L in
          let ok = ref true in
          for _ = 1 to 200 do
            match Arrivals.next a ~now:!now ~rate_per_ns:1e-4 with
            | Some ts ->
                if Int64.compare ts !now <= 0 then ok := false;
                now := ts
            | None -> ok := false
          done;
          !ok)
        specs)

(* ---- 5. churn conservation ---- *)

let test_churn_conserves_population () =
  let s = Loadgen.run ~scn:(scn "churn-heavy") ~shards:2 ~seed () in
  let total =
    Array.fold_left
      (fun a p -> a + p.Loadgen.ls_conns)
      0 s.Loadgen.l_per_shard
  in
  Alcotest.(check int) "churn replaces conns, never leaks them"
    s.Loadgen.l_conns total;
  Alcotest.(check bool) "churn actually happened" true (s.Loadgen.l_churn > 0)

(* ---- 6. overload: shed, conserve, stay bounded ---- *)

let test_overload_sheds_and_stays_bounded () =
  (* Fresh registry state so the exported dropped counter below is this
     run's, not a previous test's. *)
  Metrics.reset Metrics.default;
  let s = { (scn "overload") with qcap = 128 } in
  let st = Loadgen.run ~scn:s ~shards:2 ~seed () in
  Alcotest.(check bool) "overload sheds explicitly" true (st.Loadgen.l_shed > 0);
  Alcotest.(check int) "offered = admitted + dropped" st.Loadgen.l_offered
    (st.Loadgen.l_admitted + st.Loadgen.l_shed);
  Alcotest.(check int) "admitted work completes once drained"
    st.Loadgen.l_admitted st.Loadgen.l_done;
  Array.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "shard%d pending queue bounded by qcap"
           p.Loadgen.ls_shard)
        true
        (p.Loadgen.ls_qdepth_hwm <= s.Scenario.qcap);
      Alcotest.(check bool)
        (Printf.sprintf "shard%d stalls bounded by trunk count"
           p.Loadgen.ls_shard)
        true
        (p.Loadgen.ls_stall_hwm <= s.Scenario.trunks))
    st.Loadgen.l_per_shard;
  (* The explicit counter the ISSUE requires: shed load is visible in
     obs, not silently absorbed by an unbounded queue. *)
  let snap = Metrics.snapshot_with_shard_agg Metrics.default in
  let dropped =
    match List.assoc_opt "shards.agg.apps.loadgen.dropped" snap.Metrics.counters with
    | Some v -> v
    | None -> Alcotest.fail "shards.agg.apps.loadgen.dropped not exported"
  in
  Alcotest.(check int) "dropped counter matches shed total" st.Loadgen.l_shed
    dropped

(* A request born before the deadline can reach its station after the
   deadline event. At 100 kops/s, seed 14 offers one such request;
   whatever the station does with it, it is counted once and, if
   admitted, served. *)
let test_no_request_strands () =
  let st =
    Loadgen.run ~offered_rate:100_000. ~scn:(scn "poisson-steady") ~shards:2
      ~seed:14L ()
  in
  let laws label ~offered ~admitted ~shed ~fin =
    Alcotest.(check int) (label ^ ": offered = admitted + dropped") offered
      (admitted + shed);
    Alcotest.(check int) (label ^ ": admitted = completed") admitted fin
  in
  laws "all shards" ~offered:st.Loadgen.l_offered ~admitted:st.Loadgen.l_admitted
    ~shed:st.Loadgen.l_shed ~fin:st.Loadgen.l_done;
  Array.iter
    (fun p ->
      laws
        (Printf.sprintf "shard%d" p.Loadgen.ls_shard)
        ~offered:p.Loadgen.ls_offered ~admitted:p.Loadgen.ls_admitted
        ~shed:p.Loadgen.ls_shed ~fin:p.Loadgen.ls_done)
    st.Loadgen.l_per_shard

(* The same late request must find a trunk: a station keeps its last
   one until the offered side is done. At 1,375 kops/s over UDP trunks,
   seed 15 offers a request born 121 ns before the deadline that
   reaches its station after every other trunk there has hung up. *)
let test_late_request_served () =
  let scn =
    {
      Scenario.base with
      duration_ms = 1;
      conns = 10_000;
      offload = true;
      offload_hit = 0.9;
    }
  in
  let st = Loadgen.run ~offered_rate:1375e3 ~scn ~shards:2 ~seed:15L () in
  Alcotest.(check int) "nothing shed" 0 st.Loadgen.l_shed;
  Alcotest.(check int) "offered = completed" st.Loadgen.l_offered
    st.Loadgen.l_done

(* ---- 7. every catalogue scenario runs at smoke scale ---- *)

let test_catalogue_smoke () =
  List.iter
    (fun s ->
      let sm = Scenario.smoke s in
      let st = Loadgen.run ~scn:sm ~shards:2 ~seed () in
      Alcotest.(check bool)
        (s.Scenario.name ^ " offered something")
        true
        (st.Loadgen.l_offered > 0);
      Alcotest.(check int)
        (s.Scenario.name ^ " conserves requests")
        st.Loadgen.l_offered
        (st.Loadgen.l_admitted + st.Loadgen.l_shed))
    Scenario.all

(* ---- 8. offload mode (E16): UDP trunks + device-resident table ---- *)

let offload_scn hit =
  { (scn "poisson-steady") with Scenario.offload = true; offload_hit = hit }

(* Same offered rate, same seed: the device-hit ratio is purely a
   service-side property, so the offered digest must not move between a
   cold and a hot table — and host CPU per completed op must drop when
   the device serves the hot keys. *)
let test_offload_frees_host_cpu () =
  let run hit =
    Loadgen.run ~offered_rate:150_000.0 ~scn:(offload_scn hit) ~shards:2 ~seed ()
  in
  let cold = run 0.0 and hot = run 0.9 in
  Alcotest.(check bool) "offered digest unchanged" true
    (Int64.equal cold.Loadgen.l_digest hot.Loadgen.l_digest);
  Alcotest.(check int) "cold table has no hits" 0 cold.Loadgen.l_offload_hits;
  Alcotest.(check bool) "hot table serves hits" true
    (hot.Loadgen.l_offload_hits > 0);
  let per_op s =
    Int64.to_float s.Loadgen.l_host_cpu_ns /. float_of_int s.Loadgen.l_done
  in
  Alcotest.(check bool) "hot run frees host CPU per op" true
    (per_op hot < per_op cold);
  Alcotest.(check int) "conserves requests" hot.Loadgen.l_offered
    (hot.Loadgen.l_admitted + hot.Loadgen.l_shed)

(* The offered stream is also identical between offload mode and the
   TCP datapath: the transport is service-side too. *)
let test_offload_digest_matches_tcp () =
  let tcp =
    Loadgen.run ~offered_rate:150_000.0 ~scn:(scn "poisson-steady") ~shards:2
      ~seed ()
  in
  let udp =
    Loadgen.run ~offered_rate:150_000.0 ~scn:(offload_scn 0.5) ~shards:2 ~seed ()
  in
  Alcotest.(check bool) "same digest across transports" true
    (Int64.equal tcp.Loadgen.l_digest udp.Loadgen.l_digest)

let test_offload_deterministic () =
  let go () =
    Loadgen.stats_json
      (Loadgen.run ~offered_rate:150_000.0 ~scn:(offload_scn 0.9) ~shards:2
         ~seed ())
  in
  Alcotest.(check string) "same seed, same offload stats JSON" (go ()) (go ())

let () =
  Alcotest.run "loadgen"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed byte-identical" `Quick
            test_same_seed_byte_identical;
          Alcotest.test_case "seed moves the digest" `Quick
            test_seed_changes_digest;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "offered stream independent of service" `Quick
            test_offered_stream_independent_of_service;
        ] );
      ( "identity",
        [
          Alcotest.test_case "1 shard == single engine" `Quick
            test_single_shard_is_single_engine;
        ] );
      ( "distributions",
        List.map QCheck_alcotest.to_alcotest [ zipf_skew; arrival_gaps_positive ]
      );
      ( "churn",
        [
          Alcotest.test_case "population conserved" `Quick
            test_churn_conserves_population;
        ] );
      ( "overload",
        [
          Alcotest.test_case "sheds, conserves, bounded" `Quick
            test_overload_sheds_and_stays_bounded;
          Alcotest.test_case "late request finds a trunk" `Quick
            test_late_request_served;
          Alcotest.test_case "no request strands at the deadline" `Quick
            test_no_request_strands;
        ] );
      ( "catalogue",
        [ Alcotest.test_case "all scenarios smoke" `Quick test_catalogue_smoke ]
      );
      ( "offload",
        [
          Alcotest.test_case "frees host CPU, digest fixed" `Quick
            test_offload_frees_host_cpu;
          Alcotest.test_case "digest matches TCP datapath" `Quick
            test_offload_digest_matches_tcp;
          Alcotest.test_case "deterministic" `Quick test_offload_deterministic;
        ] );
    ]
