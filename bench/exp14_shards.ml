(* E14 — multi-shard datapath scaling. The paper's endpoint for the
   datapath: one core's libOS becomes N shared-nothing shards, each
   with its own clock, qds, pools, TCP state and fault domain; the NIC
   steers flows to shards with RSS (rebalanced indirection table), and
   the only cross-shard channel is an explicit bounded mailbox. We
   weak-scale echo and KV from 1 to 16 shards (fixed flows per shard)
   and ablate the cross-shard traffic fraction: shared-nothing scaling
   is linear at 0% remote and degrades smoothly as requests must hop
   to their home shard and back. Per-shard latency is each run's own
   [Runtime.stats] histogram. *)

module Runtime = Dk_shard_rt.Runtime
module H = Dk_sim.Histogram

let shard_counts = [ 1; 2; 4; 8; 16 ]
let flows_per_shard = 8
let echo_rounds = 100
let kv_ops_per_flow = 100
let seed = 42L

(* Merge the per-shard histograms into the run-wide distribution. *)
let merged_hist (s : Runtime.stats) =
  Array.fold_left
    (fun acc p -> H.merge acc p.Runtime.latency)
    (H.create ()) s.Runtime.per_shard

let worst_p99 (s : Runtime.stats) =
  Array.fold_left
    (fun worst p ->
      let h = p.Runtime.latency in
      if H.count h = 0 then worst
      else
        let q = H.quantile h 0.99 in
        if Int64.compare q worst > 0 then q else worst)
    0L s.Runtime.per_shard

type workload = Echo | Kv

let workload_name = function Echo -> "echo" | Kv -> "kv"

let run_cell workload ~n ~xfrac =
  let t = Runtime.create ~n ~xfrac ~seed () in
  let flows = flows_per_shard * n in
  match workload with
  | Echo -> Runtime.run_echo t ~flows ~size:64 ~rounds:echo_rounds
  | Kv ->
      Runtime.run_kv t ~flows ~ops_per_flow:kv_ops_per_flow ~keys_per_shard:64
        ~value_size:128 ~read_fraction:0.9

let kops (s : Runtime.stats) =
  float_of_int s.Runtime.total_ops
  /. (Int64.to_float s.Runtime.wall_ns /. 1e9)
  /. 1000.0

let scaling_widths = [ 6; 6; 6; 7; 8; 8; 8; 9; 13 ]

let scaling_table workload =
  let base = ref 0.0 in
  List.map
    (fun n ->
      let s = run_cell workload ~n ~xfrac:0.0 in
      let k = kops s in
      if n = 1 then base := k;
      let m = merged_hist s in
      [
        string_of_int n;
        string_of_int (flows_per_shard * n);
        string_of_int s.Runtime.total_ops;
        Printf.sprintf "%.0f" k;
        Printf.sprintf "%.1fx" (k /. !base);
        Report.ns (H.quantile m 0.5);
        Report.ns (H.quantile m 0.99);
        Report.ns (H.quantile m 0.999);
        Report.ns (worst_p99 s);
      ])
    shard_counts

let ablation_widths = [ 8; 6; 6; 7; 8; 7; 8; 8; 9 ]

let ablation_rows () =
  List.concat_map
    (fun workload ->
      List.map
        (fun xfrac ->
          let n = 8 in
          let s = run_cell workload ~n ~xfrac in
          let m = merged_hist s in
          [
            workload_name workload;
            Printf.sprintf "%.0f%%" (xfrac *. 100.0);
            string_of_int s.Runtime.total_ops;
            string_of_int s.Runtime.total_remote;
            Printf.sprintf "%.0f" (kops s);
            Report.ns (H.quantile m 0.5);
            Report.ns (H.quantile m 0.99);
            Report.ns (H.quantile m 0.999);
            Report.ns (worst_p99 s);
          ])
        [ 0.0; 0.05; 0.20 ])
    [ Echo; Kv ]

let per_shard_widths = [ 5; 5; 5; 6; 8; 8; 8 ]

let per_shard_rows () =
  let n = 16 in
  let s = run_cell Echo ~n ~xfrac:0.20 in
  Array.to_list
    (Array.map
       (fun p ->
         let h = p.Runtime.latency in
         [
           string_of_int p.Runtime.shard;
           string_of_int p.Runtime.flow_count;
           string_of_int p.Runtime.op_count;
           string_of_int p.Runtime.remote_count;
           Report.ns (H.quantile h 0.5);
           Report.ns (H.quantile h 0.99);
           Report.ns (H.quantile h 0.999);
         ])
       s.Runtime.per_shard)

let run () =
  Report.header ~id:"E14: multi-shard datapath scaling"
    ~source:"design: shared-nothing shards, \u{00a7}4.3 steering"
    ~claim:
      "N per-core shards with RSS steering scale throughput ~linearly at 0% \
       cross-shard traffic; an explicit bounded mailbox makes remote touches \
       cost one hop each way, visible as a smooth latency/throughput ablation.";
  print_endline "";
  print_endline "echo, weak scaling (8 flows/shard, 0% cross-shard):";
  Report.table scaling_widths
    [
      "shards"; "flows"; "ops"; "kops/s"; "speedup"; "p50(ns)"; "p99(ns)";
      "p99.9(ns)"; "worstp99(ns)";
    ]
    (scaling_table Echo);
  print_endline "";
  print_endline "kv (striped keys, 90% GET), weak scaling:";
  Report.table scaling_widths
    [
      "shards"; "flows"; "ops"; "kops/s"; "speedup"; "p50(ns)"; "p99(ns)";
      "p99.9(ns)"; "worstp99(ns)";
    ]
    (scaling_table Kv);
  print_endline "";
  print_endline "cross-shard traffic ablation (8 shards):";
  Report.table ablation_widths
    [
      "workload"; "xfrac"; "ops"; "remote"; "kops/s"; "p50(ns)"; "p99(ns)";
      "p99.9(ns)"; "worstp99(ns)";
    ]
    (ablation_rows ());
  print_endline "";
  print_endline "per-shard detail (echo, 16 shards, 20% cross-shard):";
  Report.table per_shard_widths
    [ "shard"; "flows"; "ops"; "remote"; "p50(ns)"; "p99(ns)"; "p99.9(ns)" ]
    (per_shard_rows ());
  Report.footnote
    "Weak scaling: flows/shard fixed, so ideal speedup equals the shard \
     count. RSS hashes each flow's 5-tuple through the indirection table, \
     then the table is rebalanced (the ethtool -X move) so per-shard flow \
     counts stay within one of even. Remote requests pay two mailbox hops \
     plus the owner's app cost on the owner's clock.\n"
