(* E3 — §3.2 copy claim: "copying a 4k page takes 1µs on a 4Ghz CPU,
   adding 50% overhead to Redis"'s ~2µs request. GET round trips with
   growing value sizes on the POSIX path (two boundary copies per
   datum) vs the Demikernel zero-copy path, plus the direct
   copy-vs-app-work accounting the paper states. *)

module Setup = Dk_apps.Sim_setup
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module Kv_posix = Dk_apps.Kv_posix
module Demi = Demikernel.Demi
module Cost = Dk_sim.Cost
module H = Dk_sim.Histogram

let ops = 60

let demi_get_p50 value_size =
  let w = Setup.world Demikernel in
  let kv = Kv.create (Demi.manager w.server) in
  ignore (Kv_app.start_tcp_server ~demi:w.server ~port:1 ~kv);
  match
    Kv_app.run_tcp_client ~demi:w.client ~dst:(Setup.endpoint w.b 1) ~ops
      ~keys:8 ~value_size ~read_fraction:1.0 ()
  with
  | Ok s -> H.quantile s.Kv_app.latency 0.5
  | Error _ -> failwith "demi kv failed"

let posix_get_p50 value_size =
  let w = Setup.world Kernel in
  let kv = Kv.create (Dk_mem.Manager.create ()) in
  ignore
    (Kv_posix.start_server ~posix:w.server ~cost:w.cost
       ~engine:w.engine ~port:1 ~kv);
  match
    Kv_posix.run_client ~posix:w.client ~engine:w.engine
      ~dst:(Setup.endpoint w.b 1) ~ops ~keys:8 ~value_size
      ~read_fraction:1.0 ()
  with
  | Ok s -> H.quantile s.Kv_app.latency 0.5
  | Error _ -> failwith "posix kv failed"

let run () =
  Report.header ~id:"E3: zero-copy I/O" ~source:"§3.2"
    ~claim:
      "A 4 KB copy costs ~1 us on a 4 GHz CPU — ~50% overhead on a 2 us Redis\n\
       read. POSIX pays it at every boundary; Demikernel queues never copy.";
  let c = Cost.default in
  Printf.printf "cost model: copy(4096 B) = %Ld ns, app request = %Ld ns -> %.0f%% overhead\n\n"
    (Cost.copy_ns c 4096) c.Cost.app_request
    (Int64.to_float (Cost.copy_ns c 4096) /. Int64.to_float c.Cost.app_request *. 100.0);
  let widths = [ 9; 16; 16; 9 ] in
  let rows =
    List.map
      (fun size ->
        let p = posix_get_p50 size and d = demi_get_p50 size in
        [ string_of_int size; Report.ns p; Report.ns d; Report.ratio p d ])
      [ 64; 512; 4096; 16384; 65536 ]
  in
  Report.table widths
    [ "value(B)"; "posix p50(ns)"; "demi p50(ns)"; "speedup" ]
    rows;
  Report.footnote
    "the gap widens with value size: copy cost is linear in bytes, the\n\
     zero-copy path is not.\n"
