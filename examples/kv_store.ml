(* A Redis-style key-value store on Demikernel queues — the workload
   the paper's introduction motivates (§3.2 uses Redis throughout).

   The server answers GETs with zero-copy responses that share the
   stored value buffer; the client runs a Zipf-skewed 90/10 GET/SET
   mix and reports the latency distribution. Both hosts come from one
   [Sim_setup.world Demikernel] call.

   Run with:  dune exec examples/kv_store.exe *)

module Demi = Demikernel.Demi
module Setup = Dk_apps.Sim_setup
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module H = Dk_sim.Histogram

let () =
  let w = Setup.world Demikernel in
  let kv = Kv.create (Demi.manager w.server) in
  let srv =
    match Kv_app.start_tcp_server ~demi:w.server ~port:6379 ~kv with
    | Ok s -> s
    | Error e -> failwith (Demikernel.Types.error_to_string e)
  in
  match
    Kv_app.run_tcp_client ~demi:w.client ~dst:(Setup.endpoint w.b 6379)
      ~ops:2000 ~keys:500 ~value_size:512 ~read_fraction:0.9 ()
  with
  | Error e -> failwith (Demikernel.Types.error_to_string e)
  | Ok stats ->
      let lat = stats.Kv_app.latency in
      Format.printf "ops        : %d (hits %d, misses %d)@." stats.Kv_app.ops
        stats.Kv_app.hits stats.Kv_app.misses;
      Format.printf "server saw : %d requests@." (Kv_app.requests_served srv);
      Format.printf "latency    : p50=%Ld ns  p99=%Ld ns  max=%Ld ns@."
        (H.quantile lat 0.5) (H.quantile lat 0.99) (H.max lat);
      let secs = Int64.to_float stats.Kv_app.elapsed_ns /. 1e9 in
      Format.printf "throughput : %.0f ops/s (virtual time)@."
        (float_of_int stats.Kv_app.ops /. secs);
      let mem = Dk_mem.Manager.stats (Demi.manager w.server) in
      Format.printf
        "server mem : %d allocs, %d releases (%d deferred by free-protection)@."
        mem.Dk_mem.Manager.allocs mem.Dk_mem.Manager.releases
        mem.Dk_mem.Manager.deferred_releases
