(* E9 — the Redis scenario end-to-end (§3.2's motivating application):
   a KV store under a Zipf 90/10 GET/SET mix, on the POSIX kernel path
   vs Demikernel queues. Throughput and tail latency. *)

module Setup = Dk_apps.Sim_setup
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module Kv_posix = Dk_apps.Kv_posix
module Demi = Demikernel.Demi
module Posix = Dk_kernel.Posix
module H = Dk_sim.Histogram

let ops = 1000
let keys = 200
let value_size = 1024

let demi_run () =
  let w = Setup.world Demikernel in
  let kv = Kv.create (Demi.manager w.server) in
  ignore (Kv_app.start_tcp_server ~demi:w.server ~port:1 ~kv);
  match
    Kv_app.run_tcp_client ~demi:w.client ~dst:(Setup.endpoint w.b 1) ~ops
      ~keys ~value_size ~read_fraction:0.9 ()
  with
  | Ok s -> (s, 0.0, 0.0)
  | Error _ -> failwith "demi kv failed"

let posix_run () =
  let w = Setup.world Kernel in
  let kv = Kv.create (Dk_mem.Manager.create ()) in
  ignore
    (Kv_posix.start_server ~posix:w.server ~cost:w.cost
       ~engine:w.engine ~port:1 ~kv);
  let sys0 = (Posix.stats w.server).Posix.syscalls in
  let copy0 = (Posix.stats w.server).Posix.bytes_copied in
  match
    Kv_posix.run_client ~posix:w.client ~engine:w.engine
      ~dst:(Setup.endpoint w.b 1) ~ops ~keys ~value_size
      ~read_fraction:0.9 ()
  with
  | Ok s ->
      let per_op n = float_of_int n /. float_of_int (ops + keys) in
      ( s,
        per_op ((Posix.stats w.server).Posix.syscalls - sys0),
        per_op ((Posix.stats w.server).Posix.bytes_copied - copy0) )
  | Error _ -> failwith "posix kv failed"

let describe name (s : Kv_app.client_stats) syscalls copied =
  [
    name;
    Report.kops_per_sec s.Kv_app.ops s.Kv_app.elapsed_ns;
    Report.ns (H.quantile s.Kv_app.latency 0.5);
    Report.ns (H.quantile s.Kv_app.latency 0.99);
    Printf.sprintf "%.1f" syscalls;
    Printf.sprintf "%.0f" copied;
  ]

let run () =
  Report.header ~id:"E9: Redis-style KV end to end" ~source:"§3.2 (Redis example)"
    ~claim:
      "The motivating application: a key-value server whose 2 us of work per\n\
       request is dwarfed by kernel overheads on the legacy path.";
  let ds, dsys, dcopy = demi_run () in
  let ps, psys, pcopy = posix_run () in
  let widths = [ 12; 12; 10; 10; 14; 15 ] in
  Report.table widths
    [ "interface"; "kops/s"; "p50(ns)"; "p99(ns)"; "srv syscalls/op"; "srv copied B/op" ]
    [
      describe "posix" ps psys pcopy;
      describe "demikernel" ds dsys dcopy;
    ];
  Report.footnote
    "%d ops, %d keys, %d B values, 90%% GET, Zipf(0.99). Server-side\n\
     syscalls/copies are per request (demikernel: zero by construction).\n"
    ops keys value_size
