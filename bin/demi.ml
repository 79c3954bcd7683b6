(* demi — command-line driver for the Demikernel reproduction.

   Subcommands run parameterised scenarios on the simulated datacenter:

     demi rtt --size 1024 --rounds 200 --stack demikernel|kernel|mtcp
     demi kv  --ops 5000 --keys 1000 --value 512 --reads 0.9 --iface ...
     demi wakeups --workers 32 --jobs 5000
     demi offload --keep 0.25 --count 1000
     demi loss --loss 0.05 --bytes 100000 *)

module Setup = Dk_apps.Sim_setup
module Echo = Dk_apps.Echo
module Demi_rt = Demikernel.Demi
module H = Dk_sim.Histogram
module Runtime = Dk_shard_rt.Runtime
open Cmdliner

let pp_hist label h =
  Format.printf "%s: n=%d p50=%Ldns p99=%Ldns mean=%.0fns max=%Ldns@." label
    (H.count h) (H.quantile h 0.5) (H.quantile h 0.99) (H.mean h) (H.max h)

(* ---- multi-shard helpers (--shards N) ---- *)

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"run the workload across N shared-nothing per-core shards \
                 (demikernel stack only; 1 = the classic single-engine path)")

let xfrac_arg =
  Arg.(value & opt float 0.0
       & info [ "xshard-frac" ] ~docv:"FRAC"
           ~doc:"fraction of requests whose home is another shard, served \
                 through the cross-shard mailbox (requires --shards > 1)")

let offload_arg =
  Arg.(value & flag
       & info [ "offload" ]
           ~doc:"serve the kv GET hot path from the programmable NIC's \
                 device-resident table over UDP datagrams (demikernel \
                 stack only); misses, SETs and DELs still reach the host")

let flows_per_shard = 4

let merged_latency (s : Runtime.stats) =
  Array.fold_left
    (fun acc p -> H.merge acc p.Runtime.latency)
    (H.create ()) s.Runtime.per_shard

let pp_shard_table (s : Runtime.stats) =
  Array.iter
    (fun p ->
      Format.printf
        "  shard%-2d flows=%-3d ops=%-6d remote=%-5d p50=%Ldns p99=%Ldns \
         p99.9=%Ldns@."
        p.Runtime.shard p.Runtime.flow_count p.Runtime.op_count
        p.Runtime.remote_count
        (H.quantile p.Runtime.latency 0.5)
        (H.quantile p.Runtime.latency 0.99)
        (H.quantile p.Runtime.latency 0.999))
    s.Runtime.per_shard;
  Format.printf "total: %d ops (%d remote) in %Ldns — %.1f kops/s@."
    s.Runtime.total_ops s.Runtime.total_remote s.Runtime.wall_ns
    (float_of_int s.Runtime.total_ops
    /. (Int64.to_float s.Runtime.wall_ns /. 1e9)
    /. 1000.)

(* ---- rtt ---- *)

let rtt_run stack size rounds window shards xfrac =
  if shards > 1 then begin
    if stack <> `Demikernel then begin
      prerr_endline "demi rtt: --shards > 1 requires --stack demikernel";
      exit 2
    end;
    let t = Runtime.create ~n:shards ~xfrac ~seed:42L () in
    let s = Runtime.run_echo t ~flows:(flows_per_shard * shards) ~size ~rounds in
    pp_hist
      (Printf.sprintf "demikernel echo %dB over %d shards (xfrac %.0f%%)" size
         shards (xfrac *. 100.))
      (merged_latency s);
    pp_shard_table s
  end
  else
  let name, h =
    match stack with
    | `Kernel ->
        let w = Setup.world Kernel in
        ignore (Echo.start_posix_server ~posix:w.server ~port:7);
        ( "kernel",
          Result.get_ok
            (Echo.posix_rtt ~posix:w.client ~engine:w.engine
               ~dst:(Setup.endpoint w.b 7) ~size ~rounds) )
    | `Mtcp ->
        let w = Setup.world Mtcp in
        ignore (Echo.start_mtcp_server ~mtcp:w.server ~port:7);
        ( "mtcp",
          Echo.mtcp_rtt ~mtcp:w.client ~engine:w.engine
            ~dst:(Setup.endpoint w.b 7) ~size ~rounds )
    | `Demikernel -> (
        let w = Setup.world Demikernel in
        Demi_rt.set_batch_window w.client window;
        ignore (Echo.start_demi_server ~demi:w.server ~port:7);
        match
          Echo.demi_rtt ~demi:w.client ~dst:(Setup.endpoint w.b 7) ~size ~rounds
        with
        | h, None -> ("demikernel", h)
        | _, Some e -> failwith (Demikernel.Types.error_to_string e))
  in
  pp_hist (Printf.sprintf "%s echo %dB" name size) h

let stack_arg =
  Arg.(value
       & opt (enum [ ("demikernel", `Demikernel); ("kernel", `Kernel); ("mtcp", `Mtcp) ])
           `Demikernel
       & info [ "stack" ] ~docv:"STACK" ~doc:"demikernel, kernel or mtcp")

let size_arg =
  Arg.(value & opt int 64 & info [ "size" ] ~docv:"BYTES" ~doc:"message size")

let rounds_arg =
  Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"N" ~doc:"round trips")

let batch_window_arg =
  Arg.(value & opt int64 0L
       & info [ "batch-window" ] ~docv:"NS"
           ~doc:"tx doorbell coalescing window in virtual ns (demikernel \
                 stack only; 0 rings the doorbell per push)")

let rtt_cmd =
  Cmd.v (Cmd.info "rtt" ~doc:"echo round-trip latency on a chosen stack")
    Term.(
      const rtt_run $ stack_arg $ size_arg $ rounds_arg $ batch_window_arg
      $ shards_arg $ xfrac_arg)

(* ---- kv ---- *)

module Workload = Dk_apps.Workload
module Proto = Dk_apps.Proto

(* Closed-loop kv over UDP datagrams with the GET hot path offloaded to
   the server NIC's device-resident table (`--offload`). The server is
   host-managed + populate: SETs write through to the device over the
   synchronous control queue and host-served GET hits are inserted, so
   a Zipf-read-heavy loop converges onto the device fast. Returns the
   world, the server handle and the latency histogram so both `demi kv`
   and `demi stats` can report on it. *)
let kv_offload_world ~ops ~keys ~value ~reads =
  let w = Setup.world ~programmable:true Demikernel in
  let da = w.client and db = w.server in
  let kv = Dk_apps.Kv.create (Demi_rt.manager db) in
  let fail_on what = function
    | Ok v -> v
    | Error e ->
        Format.eprintf "demi kv --offload: %s failed: %s@." what
          (Demikernel.Types.error_to_string e);
        exit 1
  in
  let srv =
    fail_on "server start"
      (Dk_apps.Kv_app.start_udp_offload_server ~demi:db ~port:1 ~kv
         ~capacity:(max 16 keys) ~max_value:(max 64 value) ~populate:true ())
  in
  fail_on "set peer"
    (Dk_apps.Kv_app.set_udp_peer srv (Setup.endpoint w.a 5555));
  let qd = fail_on "client socket" (Demi_rt.socket da `Udp) in
  fail_on "client bind" (Demi_rt.bind da qd ~port:5555);
  fail_on "client connect"
    (Demi_rt.connect da qd ~dst:(Setup.endpoint w.b 1));
  let rpc s =
    match Demi_rt.blocking_push da qd (Dk_mem.Sga.of_strings [ s ]) with
    | Demikernel.Types.Pushed -> (
        match Demi_rt.blocking_pop da qd with
        | Demikernel.Types.Popped r -> Dk_mem.Sga.free r
        | _ ->
            prerr_endline "demi kv --offload: pop failed";
            exit 1)
    | _ ->
        prerr_endline "demi kv --offload: push failed";
        exit 1
  in
  let wl = Workload.create ~seed:42L (Workload.Zipf { n = keys; theta = 0.99 }) in
  for k = 0 to keys - 1 do
    rpc
      (Proto.udp_request_string
         (Proto.Set (Workload.key_name k, Workload.value wl ~size:value)))
  done;
  let h = H.create () in
  for _ = 1 to ops do
    let k = Workload.next_key wl in
    let req =
      if Workload.is_get wl ~read_fraction:reads then
        Proto.Get (Workload.key_name k)
      else Proto.Set (Workload.key_name k, Workload.value wl ~size:value)
    in
    let t0 = Dk_sim.Engine.now w.engine in
    rpc (Proto.udp_request_string req);
    H.record h (Int64.sub (Dk_sim.Engine.now w.engine) t0)
  done;
  (w, srv, h)

let kv_offload_run ops keys value reads =
  let w, srv, h = kv_offload_world ~ops ~keys ~value ~reads in
  let engine = w.engine and db = w.server in
  pp_hist "demikernel kv (GET path on the NIC)" h;
  Format.printf "throughput: %.1f kops/s@."
    (float_of_int ops
    /. (Int64.to_float (Dk_sim.Engine.now engine) /. 1e9)
    /. 1000.);
  (match Demi_rt.offload_stats db with
  | Some s ->
      Format.printf
        "device table: %d/%d GETs served on the NIC (%.0f%% hit), %d \
         requests host-served@."
        s.Dk_device.Table.hits s.Dk_device.Table.lookups
        (100.
        *. float_of_int s.Dk_device.Table.hits
        /. float_of_int (max 1 s.Dk_device.Table.lookups))
        (Dk_apps.Kv_app.requests_served srv)
  | None -> Format.printf "device table: pipeline ran on the host (CPU fallback)@.");
  Format.printf "host CPU: %Ldns busy (client + server share the engine)@."
    (Dk_sim.Engine.consumed engine);
  if not (Dk_apps.Kv_app.server_offloaded srv) then
    prerr_endline "warning: GET pipeline did not land on the device"

let kv_run iface ops keys value reads offload shards xfrac =
  if offload then begin
    if shards > 1 || iface <> `Demikernel then begin
      prerr_endline
        "demi kv: --offload requires --iface demikernel and --shards 1";
      exit 2
    end;
    kv_offload_run ops keys value reads
  end
  else if shards > 1 then begin
    if iface <> `Demikernel then begin
      prerr_endline "demi kv: --shards > 1 requires --iface demikernel";
      exit 2
    end;
    let t = Runtime.create ~n:shards ~xfrac ~seed:42L () in
    let flows = flows_per_shard * shards in
    let s =
      Runtime.run_kv t ~flows
        ~ops_per_flow:(max 1 (ops / flows))
        ~keys_per_shard:(max 1 (keys / shards))
        ~value_size:value ~read_fraction:reads
    in
    pp_hist
      (Printf.sprintf "demikernel kv over %d shards (xfrac %.0f%%)" shards
         (xfrac *. 100.))
      (merged_latency s);
    pp_shard_table s
  end
  else
  let pp_kv name = function
    | Ok s ->
        pp_hist name s.Dk_apps.Kv_app.latency;
        Format.printf "throughput: %.1f kops/s@."
          (float_of_int s.Dk_apps.Kv_app.ops
           /. (Int64.to_float s.Dk_apps.Kv_app.elapsed_ns /. 1e9)
           /. 1000.)
    | Error _ -> prerr_endline (name ^ " run failed")
  in
  match iface with
  | `Posix ->
      let w = Setup.world Kernel in
      let kv = Dk_apps.Kv.create (Dk_mem.Manager.create ()) in
      ignore
        (Dk_apps.Kv_posix.start_server ~posix:w.server ~cost:w.cost
           ~engine:w.engine ~port:1 ~kv);
      pp_kv "posix kv"
        (Dk_apps.Kv_posix.run_client ~posix:w.client ~engine:w.engine
           ~dst:(Setup.endpoint w.b 1) ~ops ~keys ~value_size:value
           ~read_fraction:reads ())
  | `Demikernel ->
      let w = Setup.world Demikernel in
      let kv = Dk_apps.Kv.create (Demi_rt.manager w.server) in
      ignore (Dk_apps.Kv_app.start_tcp_server ~demi:w.server ~port:1 ~kv);
      pp_kv "demikernel kv"
        (Dk_apps.Kv_app.run_tcp_client ~demi:w.client
           ~dst:(Setup.endpoint w.b 1) ~ops ~keys ~value_size:value
           ~read_fraction:reads ())

let kv_cmd =
  let iface =
    Arg.(value
         & opt (enum [ ("demikernel", `Demikernel); ("posix", `Posix) ]) `Demikernel
         & info [ "iface" ] ~docv:"IFACE" ~doc:"demikernel or posix")
  in
  let ops = Arg.(value & opt int 1000 & info [ "ops" ] ~docv:"N" ~doc:"operations") in
  let keys = Arg.(value & opt int 200 & info [ "keys" ] ~docv:"N" ~doc:"key count") in
  let value = Arg.(value & opt int 512 & info [ "value" ] ~docv:"BYTES" ~doc:"value size") in
  let reads =
    Arg.(value & opt float 0.9 & info [ "reads" ] ~docv:"FRAC" ~doc:"GET fraction")
  in
  Cmd.v (Cmd.info "kv" ~doc:"key-value workload on a chosen interface")
    Term.(
      const kv_run $ iface $ ops $ keys $ value $ reads $ offload_arg
      $ shards_arg $ xfrac_arg)

(* ---- wakeups ---- *)

let wakeups_run workers jobs =
  let run mode =
    let engine = Dk_sim.Engine.create () in
    Dk_sched.Worker_pool.run ~engine ~cost:Dk_sim.Cost.default ~mode ~workers
      ~jobs ~mean_interarrival_ns:3000.0 ~service_ns:2000L ()
  in
  let herd = run `Epoll_herd and tok = run `Qtoken in
  Format.printf "epoll herd : %d wakeups, %d wasted, p99 dispatch %Ldns@."
    herd.Dk_sched.Worker_pool.wakeups herd.Dk_sched.Worker_pool.wasted_wakeups
    (H.quantile herd.Dk_sched.Worker_pool.dispatch_latency 0.99);
  Format.printf "qtoken     : %d wakeups, %d wasted, p99 dispatch %Ldns@."
    tok.Dk_sched.Worker_pool.wakeups tok.Dk_sched.Worker_pool.wasted_wakeups
    (H.quantile tok.Dk_sched.Worker_pool.dispatch_latency 0.99)

let wakeups_cmd =
  let workers = Arg.(value & opt int 16 & info [ "workers" ] ~docv:"N") in
  let jobs = Arg.(value & opt int 2000 & info [ "jobs" ] ~docv:"N") in
  Cmd.v (Cmd.info "wakeups" ~doc:"epoll herd vs qtoken wakeups (§4.4)")
    Term.(const wakeups_run $ workers $ jobs)

(* ---- loss ---- *)

let loss_run loss bytes =
  let w = Setup.world ~loss Demikernel in
  let da = w.client in
  ignore (Echo.start_demi_server ~demi:w.server ~port:7);
  let qd = Result.get_ok (Demi_rt.socket da `Tcp) in
  (match Demi_rt.connect da qd ~dst:(Setup.endpoint w.b 7) with
  | Ok () -> ()
  | Error e -> failwith (Demikernel.Types.error_to_string e));
  let payload = String.init bytes (fun i -> Char.chr (i land 0xff)) in
  let t0 = Dk_sim.Engine.now w.engine in
  ignore (Demi_rt.blocking_push da qd (Dk_mem.Sga.of_string payload));
  (match Demi_rt.blocking_pop da qd with
  | Demikernel.Types.Popped reply ->
      let ok = String.equal (Dk_mem.Sga.to_string reply) payload in
      Format.printf "echoed %d bytes intact=%b in %Ldns over a %.1f%%-lossy fabric@."
        bytes ok
        (Int64.sub (Dk_sim.Engine.now w.engine) t0)
        (loss *. 100.)
  | r -> Format.printf "failed: %a@." Demikernel.Types.pp_op_result r);
  let fs = Dk_device.Fabric.stats w.fabric in
  Format.printf "fabric: %d delivered, %d lost (TCP retransmission recovered them)@."
    fs.Dk_device.Fabric.delivered fs.Dk_device.Fabric.lost

let loss_cmd =
  let loss = Arg.(value & opt float 0.02 & info [ "loss" ] ~docv:"FRAC") in
  let bytes = Arg.(value & opt int 100_000 & info [ "bytes" ] ~docv:"N") in
  Cmd.v (Cmd.info "loss" ~doc:"bulk transfer over a lossy fabric")
    Term.(const loss_run $ loss $ bytes)

(* ---- stats ---- *)

let flight_tail = 16

let print_obs_and_flight ~now snap json =
  Format.printf "@.%a" Dk_obs.Export.pp_table snap;
  let fl = Dk_obs.Flight.default in
  let entries = Dk_obs.Flight.entries fl in
  let len = List.length entries in
  let tail =
    if len <= flight_tail then entries
    else List.filteri (fun i _ -> i >= len - flight_tail) entries
  in
  Format.printf
    "@.flight recorder: %d events recorded, %d evicted, %d buffered; last %d:@."
    (Dk_obs.Flight.recorded fl) (Dk_obs.Flight.evicted fl) len
    (List.length tail);
  List.iter
    (fun (e : Dk_obs.Flight.entry) ->
      Format.printf "%12Ld  %-10s %s@." e.Dk_obs.Flight.at
        (Dk_obs.Flight.kind_name e.Dk_obs.Flight.kind)
        e.Dk_obs.Flight.what)
    tail;
  match json with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Dk_obs.Export.json_lines ~now snap);
      output_string oc (Dk_obs.Export.json_flight fl);
      close_out oc;
      Format.printf "@.wrote %s@." file

(* Host-allocation meter: the OCaml GC's minor-words delta across the
   workload, absolute and per completed echo round. The sim's mem.*
   instruments count simulated pool traffic; this pair counts real
   heap churn on the host running the datapath — the meter dk-hot's
   allocation fixes move. Same binary + same workload = same delta,
   so the determinism double-run diff stays byte-identical. *)
let g_minor_words = Dk_obs.Metrics.gauge "host.gc.minor_words"
let g_minor_per_op = Dk_obs.Metrics.gauge "host.gc.minor_words_per_op"

let meter_host_alloc ~since ~ops =
  let dw = int_of_float (Gc.minor_words () -. since) in
  Dk_obs.Metrics.set g_minor_words dw;
  Dk_obs.Metrics.set g_minor_per_op (dw / max 1 ops)

let stats_run size rounds loss json window offload shards xfrac =
  (* A sanitizer violation mid-run dumps the flight recorder: the last
     thing the datapath did before the bug, which the kernel can no
     longer tell us (the whole point of lib/obs). *)
  Dk_mem.Dk_check.set_sink (fun _ _ ->
      Format.eprintf "flight recorder at violation:@.%a" Dk_obs.Flight.pp
        Dk_obs.Flight.default);
  Dk_obs.Metrics.reset Dk_obs.Metrics.default;
  Dk_obs.Flight.clear Dk_obs.Flight.default;
  let mw0 = Gc.minor_words () in
  if offload then begin
    (* Offload workload instead of echo: the snapshot then carries the
       device.nic.offload.* instruments (table hits/misses/insertions/
       bytes) next to the usual datapath counters. *)
    if shards > 1 then begin
      prerr_endline "demi stats: --offload requires --shards 1";
      exit 2
    end;
    let w, srv, h =
      kv_offload_world ~ops:rounds ~keys:200 ~value:size ~reads:0.9
    in
    meter_host_alloc ~since:mw0 ~ops:rounds;
    Format.printf
      "kv offload workload: %d ops, %dB values, GET hot path on the NIC \
       (offloaded=%b)@."
      rounds size
      (Dk_apps.Kv_app.server_offloaded srv);
    pp_hist "op latency" h;
    let now = Dk_sim.Engine.now w.engine in
    let snap = Dk_obs.Metrics.snapshot Dk_obs.Metrics.default in
    print_obs_and_flight ~now snap json
  end
  else if shards > 1 then begin
    (* Multi-shard echo: per-shard shard<i>.* instruments plus the
       folded shards.agg.* view in the table and the JSON export. *)
    let t = Runtime.create ~n:shards ~xfrac ~seed:42L () in
    let s = Runtime.run_echo t ~flows:(flows_per_shard * shards) ~size ~rounds in
    meter_host_alloc ~since:mw0 ~ops:(flows_per_shard * shards * rounds);
    Format.printf
      "echo workload: %d rounds of %dB per flow across %d shards (xfrac \
       %.0f%%)@."
      rounds size shards (xfrac *. 100.);
    pp_hist "round-trip latency (merged)" (merged_latency s);
    pp_shard_table s;
    let now =
      Array.fold_left
        (fun a e -> let n = Dk_sim.Engine.now e in if Int64.compare n a > 0 then n else a)
        0L (Runtime.engines t)
    in
    let snap = Dk_obs.Metrics.snapshot_with_shard_agg Dk_obs.Metrics.default in
    print_obs_and_flight ~now snap json
  end
  else begin
    let w = Setup.world ~loss Demikernel in
    Demi_rt.set_batch_window w.client window;
    ignore (Echo.start_demi_server ~demi:w.server ~port:7);
    let h, err =
      Echo.demi_rtt ~demi:w.client ~dst:(Setup.endpoint w.b 7) ~size ~rounds
    in
    Option.iter (fun e -> failwith (Demikernel.Types.error_to_string e)) err;
    meter_host_alloc ~since:mw0 ~ops:rounds;
    Format.printf "echo workload: %d rounds of %dB over a %.1f%%-lossy fabric@."
      rounds size (loss *. 100.);
    pp_hist "round-trip latency" h;
    let now = Dk_sim.Engine.now w.engine in
    let snap = Dk_obs.Metrics.snapshot Dk_obs.Metrics.default in
    print_obs_and_flight ~now snap json
  end;
  Dk_mem.Dk_check.clear_sink ()

let stats_loss_arg =
  Arg.(value & opt float 0.0
       & info [ "loss" ] ~docv:"FRAC" ~doc:"fabric loss probability")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"also write the snapshot and flight log as JSON lines")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"run an echo workload and dump every datapath obs instrument")
    Term.(
      const stats_run $ size_arg $ rounds_arg $ stats_loss_arg $ json_arg
      $ batch_window_arg $ offload_arg $ shards_arg $ xfrac_arg)

(* ---- scenario ---- *)

module Loadgen = Dk_loadgen.Loadgen
module Scen = Dk_loadgen.Scenario

let scenario_list () =
  Format.printf "named scenarios (run with `demi scenario NAME`):@.";
  List.iter
    (fun (s : Scen.t) ->
      Format.printf "  %-15s %s@." s.Scen.name s.Scen.summary)
    Scen.all

let pp_scenario_stats (s : Loadgen.stats) =
  Format.printf
    "%s: %d conns over %d shard(s), %.0f kops/s offered for %Ldms@."
    s.Loadgen.l_scenario s.Loadgen.l_conns s.Loadgen.l_shards
    (s.Loadgen.l_offered_rate /. 1e3)
    (Int64.div s.Loadgen.l_duration_ns 1_000_000L);
  if s.Loadgen.l_capacity > 0.0 then
    Format.printf "  calibrated capacity: %.0f kops/s@."
      (s.Loadgen.l_capacity /. 1e3);
  Format.printf
    "  offered=%d admitted=%d dropped=%d completed=%d churned=%d@."
    s.Loadgen.l_offered s.Loadgen.l_admitted s.Loadgen.l_shed s.Loadgen.l_done
    s.Loadgen.l_churn;
  let h = s.Loadgen.l_lat in
  Format.printf
    "  goodput %.1f kops/s; latency p50=%Ldns p99=%Ldns p99.9=%Ldns max=%Ldns@."
    (s.Loadgen.l_goodput /. 1e3)
    (H.quantile h 0.5) (H.quantile h 0.99) (H.quantile h 0.999) (H.max h);
  Array.iter
    (fun (p : Loadgen.shard_stats) ->
      Format.printf
        "  shard%-2d conns=%-6d offered=%-7d dropped=%-5d done=%-7d \
         qhwm=%-5d p99=%Ldns@."
        p.Loadgen.ls_shard p.Loadgen.ls_conns p.Loadgen.ls_offered
        p.Loadgen.ls_shed p.Loadgen.ls_done p.Loadgen.ls_qdepth_hwm
        (H.quantile p.Loadgen.ls_lat 0.99))
    s.Loadgen.l_per_shard;
  if s.Loadgen.l_offload then
    Format.printf
      "  offload: %d resident keys, %d/%d GETs served by the device, host \
       CPU %Ldns@."
      s.Loadgen.l_offload_resident s.Loadgen.l_offload_hits
      s.Loadgen.l_offload_lookups s.Loadgen.l_host_cpu_ns;
  Format.printf "  digest 0x%016Lx@." s.Loadgen.l_digest

(* Default modeled-connection scale for full (non-smoke) runs. Conns
   are lightweight ids — O(1) ints each and an O(conns) placement pass
   — so 10^6 raises the population the RSS/churn/slow-reader machinery
   exercises without touching the offered window; only `--smoke` stays
   at the CI-budget 10^4. *)
let scenario_default_conns = 1_000_000

let scenario_run name all smoke shards conns offload offload_hit offered_rate
    seed json =
  let picked =
    if all then Scen.all
    else
      match name with
      | None -> []
      | Some n -> (
          match Scen.find n with
          | Some s -> [ s ]
          | None ->
              Format.eprintf
                "demi scenario: unknown scenario %S (run `demi scenario` to \
                 list)@."
                n;
              exit 2)
  in
  if picked = [] then scenario_list ()
  else
    List.iter
      (fun scn ->
        let scn =
          if smoke then Scen.smoke scn
          else { scn with Scen.conns = max scn.Scen.conns scenario_default_conns }
        in
        let scn =
          match conns with
          | Some c -> { scn with Scen.conns = max 1 c }
          | None -> scn
        in
        let scn =
          if offload then
            { scn with Scen.offload = true; Scen.offload_hit = offload_hit }
          else scn
        in
        let s = Loadgen.run ?offered_rate ~scn ~shards ~seed () in
        if json then print_endline (Loadgen.stats_json s)
        else pp_scenario_stats s)
      picked

let scenario_cmd =
  let scn_name =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:"scenario to run (omit to list the catalogue)")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"run every scenario in the catalogue")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI scale: 10^4 connections and a short window")
  in
  let conns =
    Arg.(value & opt (some int) None
         & info [ "conns" ] ~docv:"N"
             ~doc:"modeled connection count (default: 10^6 for full runs, \
                   10^4 under --smoke)")
  in
  let offload_hit =
    Arg.(value & opt float 0.9
         & info [ "offload-hit" ] ~docv:"FRAC"
             ~doc:"with --offload: target device-hit fraction of GETs — the \
                   smallest hot-key prefix carrying this much popularity \
                   mass is pre-inserted into each shard's device table")
  in
  let offered_rate =
    Arg.(value & opt (some float) None
         & info [ "offered-rate" ] ~docv:"OPS_S"
             ~doc:"absolute offered rate in ops/s (skips capacity \
                   calibration; default derives the rate from the \
                   scenario's offered_mult x calibrated capacity)")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"N"
             ~doc:"world seed; same seed + scenario = identical stats")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"emit one deterministic JSON stats line per scenario")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"open-loop load-generation scenarios: 10^6 modeled connections \
             multiplexed over the real datapath (list, or run by name)")
    Term.(
      const scenario_run $ scn_name $ all $ smoke $ shards_arg $ conns
      $ offload_arg $ offload_hit $ offered_rate $ seed $ json)

(* ---- faults ---- *)

module Fault = Dk_fault.Fault

let faults_list () =
  Format.printf "injection sites:@.";
  List.iter
    (fun s ->
      Format.printf "  %-18s %s@." (Fault.site_name s) (Fault.describe s))
    Fault.sites;
  Format.printf
    "@.named plans (replay with `demi faults --plan NAME --seed N`):@.";
  List.iter (fun (n, d) -> Format.printf "  %-15s %s@." n d) Fault.plan_names

(* Run the replay workload's echo phase and storage phase on one
   client in a world armed with the plan, reporting liveness (first
   surfaced error, if any) and the world's injection ledger. Everything
   is virtual-time deterministic: same plan + seed => same output,
   which is what makes `demi faults` a replay tool. *)
let faults_replay name seed size rounds =
  match Fault.named ~seed:(Int64.of_int seed) name with
  | None ->
      Format.eprintf "demi faults: unknown plan %S (run `demi faults` to list)@."
        name;
      exit 2
  | Some plan ->
      Dk_obs.Metrics.reset Dk_obs.Metrics.default;
      Dk_obs.Flight.clear Dk_obs.Flight.default;
      let w = Setup.world ~fault_plan:plan ~block:true Demikernel in
      ignore (Echo.start_demi_server ~demi:w.server ~port:7);
      Format.printf "plan %s (seed %d): %s@." plan.Fault.plan_name seed
        (try List.assoc name Fault.plan_names with Not_found -> "custom");
      let then_ = function
        | None -> ""
        | Some e ->
            Printf.sprintf " — then %s" (Demikernel.Types.error_to_string e)
      in
      let ok_rounds, echo_err =
        Dk_apps.Fault_replay.echo ~demi:w.client ~dst:(Setup.endpoint w.b 7)
          ~size ~rounds
      in
      Format.printf "echo   : %d/%d rounds%s@." ok_rounds rounds (then_ echo_err);
      let records = 8 in
      let ok_records, log_err = Dk_apps.Fault_replay.log ~demi:w.client ~records in
      Format.printf "storage: %d/%d records%s@." ok_records records
        (then_ log_err);
      Format.printf "@.injected (virtual time now %Ldns):@."
        (Dk_sim.Engine.now w.engine);
      List.iter
        (fun s ->
          let n = Fault.injected w.fault s in
          if n > 0 then Format.printf "  %-18s %d@." (Fault.site_name s) n)
        Fault.sites;
      if Fault.total_injected w.fault = 0 then
        Format.printf "  (nothing fired — window/rate injected no faults)@."

let faults_run plan seed size rounds =
  match plan with
  | None -> faults_list ()
  | Some name -> faults_replay name seed size rounds

let faults_cmd =
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"NAME"
             ~doc:"named fault plan to replay (omit to list sites and plans)")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"plan RNG seed")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"list fault-injection sites, or deterministically replay a plan")
    Term.(const faults_run $ plan $ seed $ size_arg $ rounds_arg)

(* `demi --stats` (no subcommand) behaves like `demi stats`. *)
let default =
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"run an echo workload and dump datapath observability stats")
  in
  Term.(
    ret
      (const (fun stats size rounds loss json window offload shards xfrac ->
           if stats then
             `Ok (stats_run size rounds loss json window offload shards xfrac)
           else `Help (`Pager, None))
      $ stats_flag $ size_arg $ rounds_arg $ stats_loss_arg $ json_arg
      $ batch_window_arg $ offload_arg $ shards_arg $ xfrac_arg))

let main =
  Cmd.group ~default
    (Cmd.info "demi" ~version:"1.0"
       ~doc:"Demikernel reproduction: parameterised simulation scenarios")
    [
      rtt_cmd; kv_cmd; wakeups_cmd; loss_cmd; stats_cmd; scenario_cmd;
      faults_cmd;
    ]

let () = exit (Cmd.eval main)
