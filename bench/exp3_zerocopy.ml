(* E3 — §3.2 copy claim: "copying a 4k page takes 1µs on a 4Ghz CPU,
   adding 50% overhead to Redis"'s ~2µs request. GET round trips with
   growing value sizes on the POSIX path (two boundary copies per
   datum) vs the Demikernel zero-copy path, plus the direct
   copy-vs-app-work accounting the paper states. *)

module Setup = Dk_apps.Sim_setup
module Kv_app = Dk_apps.Kv_app
module Cost = Dk_sim.Cost
module H = Dk_sim.Histogram

let ops = 60

let get_p50 w value_size =
  ignore (Kv_app.serve w);
  match
    Kv_app.run w ~ops ~keys:8 ~value_size ~read_fraction:1.0 ()
  with
  | Ok s -> H.quantile s.Kv_app.latency 0.5
  | Error _ -> failwith "kv failed"

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
        let p = get_p50 (Setup.world Kernel) size
        and d = get_p50 (Setup.world Demikernel) size in
        [ string_of_int size; Report.ns p; Report.ns d; Report.ratio p d ])
      [ 64; 512; 4096; 16384; 65536 ]
  in
  Report.table widths
    [ "value(B)"; "posix p50(ns)"; "demi p50(ns)"; "speedup" ]
    rows;
  Report.footnote
    "the gap widens with value size: copy cost is linear in bytes, the\n\
     zero-copy path is not.\n"
