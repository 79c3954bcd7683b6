(* Open-loop load generation at 10^5+ connection scale.

   The trick that makes a million connections simulable: a modeled
   connection is four integers (an id, hashed on demand into a 5-tuple
   for RSS steering, a slow-reader bit, a home shard), not a fiber and
   not a TCP control block. Requests drawn for those connections are
   multiplexed over a small set of REAL Demikernel TCP connections per
   shard ("trunks"), so the service rate is whatever the actual
   datapath — TCP, NIC queues, waitsets, pools, doorbell windows — can
   sustain, while the offered side scales to any connection count.

   Open-loop discipline: every decision on the offered side (arrival
   times, which connection, which key, get/set, churn, incast victims)
   is drawn from seeded [Dk_sim.Rng] streams that the service side
   never touches. The service side (trunk pumps, completions) consumes
   those decisions but contributes no randomness and no feedback. The
   per-run [digest] folds the offered stream (relative arrival time,
   connection, key) and is therefore a checkable witness: change the
   cost model and the digest must not move.

   Overload is explicit, not accidental: each shard's pending-request
   queue is bounded at [qcap]; beyond it arrivals are shed and counted
   in [apps.loadgen.dropped]. Conservation holds by construction:
   offered = admitted + dropped, and after the run drains,
   admitted = completed.

   Clocking: stations live on per-shard engines driven by
   [Engine.run_group]. An arrival decided on shard [i] for a
   connection RSS steers to shard [j] is delivered by scheduling on
   [j]'s engine at the arrival timestamp — legal because the group
   scheduler never lets any engine's clock pass a pending event's
   timestamp, and exactly the NIC-delivers-to-owning-core semantics of
   the sharded datapath. *)

module Engine = Dk_sim.Engine
module Rng = Dk_sim.Rng
module Histogram = Dk_sim.Histogram
module Metrics = Dk_obs.Metrics
module Rss = Dk_device.Rss
module Addr = Dk_net.Addr
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Proto = Dk_apps.Proto
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module Workload = Dk_apps.Workload
module Sim_setup = Dk_apps.Sim_setup
module Shard = Dk_shard_rt.Shard
module Runtime = Dk_shard_rt.Runtime

let kv_port = 6379

(* Offload mode trunks are UDP sockets with fixed client-side ports:
   trunk k runs (client:40000+k) <-> (server:kv_port+k), one request
   outstanding per trunk, so responses correlate FIFO without tags. *)
let trunk_port k = 40000 + k

(* ---- seeded stream derivation (splitmix-style, pure) ---- *)

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let substream seed salt = mix64 (Int64.add seed (Int64.mul golden salt))

(* ---- a pending (admitted or queued) request ---- *)

type pendreq = { p_conn : int; p_born : int64; p_key : int; p_get : bool }

(* ---- per-shard station ---- *)

type station = {
  id : int;
  sh : Shard.t;
  eng : Engine.t;
  arr : Arrivals.t;
  wl : Workload.t;  (* key popularity stream *)
  rng : Rng.t;  (* connection-mix / churn stream *)
  mutable active : int array;  (* dense long-lived conn ids, swap-remove *)
  mutable n_active : int;
  pend : pendreq Queue.t;  (* bounded at qcap *)
  idle : Types.qd Queue.t;  (* parked trunks *)
  mutable shutting : bool;
  mutable live : int;  (* trunks not yet closed *)
  (* This run's counts: the station's own instances of the
     [apps.loadgen.*] instruments, so its stats never read what an
     earlier world in the same process left in the registry. *)
  offered : Metrics.counter;
  admitted : Metrics.counter;
  dropped : Metrics.counter;
  completed : Metrics.counter;
  churned : Metrics.counter;
  qdepth : Metrics.gauge;
  stalls : Metrics.gauge;
  lat : Metrics.hist;
  mutable inwin : int;  (* completions inside the offered window *)
  mutable digest : int64;
}

type t = {
  cfg : Scenario.t;
  n : int;
  seed : int64;
  stations : station array;
  engines : Engine.t array;
  rss : Rss.t;
  value : string;  (* Set payload, fixed per run *)
  t0 : int64;  (* virtual time the offered window opens *)
  deadline : int64;  (* ... and closes (strict) *)
  rate_per_ns : float;  (* offered rate, ops per virtual ns *)
  inc_rng : Rng.t;  (* incast victim stream *)
  inc_wl : Workload.t;  (* incast key stream *)
  mutable inc_digest : int64;
  mutable eph : int;  (* next ephemeral (short-lived/churned) conn id *)
  mutable offers : int;
      (* offered-side events scheduled and not yet run: arrival fires,
         re-probes, incast fires, deliveries *)
}

(* Instrument names: [apps.loadgen.*] single-shard, [shard<i>.apps.loadgen.*]
   multi-shard so [snapshot_with_shard_agg] synthesizes the totals. *)
let mname n id rest =
  if n = 1 then "apps.loadgen." ^ rest
  else Shard.obs_name id ("apps.loadgen." ^ rest)

(* Slow-reader bit: a pure hash of (seed, conn), not an RNG stream, so
   it never perturbs draw order however service interleaves. *)
let conn_is_slow t conn =
  if t.cfg.slow_frac <= 0.0 then false
  else
    let z = mix64 (Int64.add (Int64.mul golden (Int64.of_int (conn + 1))) t.seed) in
    let u =
      Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
    in
    u < t.cfg.slow_frac

(* RSS steering of modeled connections: the placement
   [Runtime.place_flows] uses. *)
let rss_target rss c = Runtime.flow_owner rss c ~dst_port:kv_port

(* ---- the served side: a local KV server per shard ---- *)

let start_server sh =
  Kv_app.start_tcp_server ~demi:(Shard.demi_server sh) ~port:kv_port
    ~kv:(Shard.kv sh)
  |> Result.map (fun (_ : Kv_app.server) -> ())

let connect_client sh =
  let demi = Shard.demi_client sh in
  let ( let* ) = Result.bind in
  let* qd = Demi.socket demi `Tcp in
  let* () = Demi.connect demi qd ~dst:(Shard.server_endpoint sh kv_port) in
  Ok qd

let key_dist (scn : Scenario.t) =
  if scn.zipf_theta <= 0.0 then Workload.Uniform scn.keys
  else Workload.Zipf { n = scn.keys; theta = scn.zipf_theta }

(* ---- offload mode: UDP trunk servers + device-table population ----

   One Kv_app offload server per trunk port, all sharing the shard's KV
   store and the server NIC's single device-resident table. After the
   servers are up, the smallest hot-key prefix carrying [offload_hit]
   of the popularity mass is pushed into the table over the control
   queue: with SETs applied update-only (Kv_app), the resident set is
   pinned for the whole run, so the offered hit ratio tracks the
   prefix mass. *)

let offload_resident (scn : Scenario.t) =
  if not scn.offload then 0
  else Workload.hot_prefix (key_dist scn) ~mass:scn.offload_hit

let start_server_udp (scn : Scenario.t) n sh =
  let demi = Shard.demi_server sh in
  let prefix = if n = 1 then "" else Shard.obs_name (Shard.id sh) "" in
  let client_ip = (Shard.client_host sh).Sim_setup.ip in
  let ( let* ) = Result.bind in
  let rec go k =
    if k >= scn.trunks then Ok ()
    else
      let* srv =
        Kv_app.start_udp_offload_server ~demi ~port:(kv_port + k)
          ~kv:(Shard.kv sh) ~obs_prefix:prefix ~capacity:(max 16 scn.keys)
          ~max_value:(max 64 scn.value_size) ()
      in
      let* () = Kv_app.set_udp_peer srv (Addr.endpoint client_ip (trunk_port k)) in
      go (k + 1)
  in
  let* () = go 0 in
  let v = String.make scn.value_size 'v' in
  for i = 0 to offload_resident scn - 1 do
    match Demi.offload_insert demi (Workload.key_name i) v with
    | Ok () | Error `Rejected -> ()
  done;
  Ok ()

let connect_client_udp sh k =
  let demi = Shard.demi_client sh in
  let ( let* ) = Result.bind in
  let* qd = Demi.socket demi `Udp in
  let* () = Demi.bind demi qd ~port:(trunk_port k) in
  let* () = Demi.connect demi qd ~dst:(Shard.server_endpoint sh (kv_port + k)) in
  Ok qd

let preload (scn : Scenario.t) sh =
  (* Any key may be asked of any shard (the key space is global, the
     conn->shard map is RSS), so every shard's store holds them all. *)
  let v = String.make scn.value_size 'v' in
  for k = 0 to scn.keys - 1 do
    let (_ : bool) = Kv.set (Shard.kv sh) (Workload.key_name k) v in
    ()
  done

(* ---- trunk pump: issue, complete, pump the bounded queue ---- *)

let hang_up st qd =
  st.live <- st.live - 1;
  match Demi.close (Shard.demi_client st.sh) qd with Ok () | Error _ -> ()

(* After the deadline a station keeps its last trunk while any offered
   event is pending: a request born before the deadline can still reach
   it late (the engine clock had run past its birth), and must find a
   trunk to serve it rather than be shed. *)
let may_hang_up t st = st.live > 1 || t.offers = 0

let hang_up_idle t st =
  while (not (Queue.is_empty st.idle)) && may_hang_up t st do
    hang_up st (Queue.pop st.idle)
  done

let rec issue t j qd p =
  let st = t.stations.(j) in
  let demi = Shard.demi_client st.sh in
  let key = Workload.key_name p.p_key in
  let req = if p.p_get then Proto.Get key else Proto.Set (key, t.value) in
  let sga =
    if t.cfg.offload then
      Dk_mem.Sga.of_strings [ Proto.udp_request_string req ]
    else Proto.request_sga req
  in
  (match Demi.push demi qd sga with
  | Ok ptok -> Demi.watch demi ptok (fun _ -> ())
  | Error _ -> ());
  match Demi.pop demi qd with
  | Error _ -> ()
  | Ok tok ->
      Demi.watch demi tok (function
        | Types.Popped reply ->
            Dk_mem.Sga.free reply;
            let now = Engine.now st.eng in
            Metrics.observe st.lat (Int64.sub now p.p_born);
            Metrics.incr st.completed;
            if Int64.compare now t.deadline <= 0 then st.inwin <- st.inwin + 1;
            if conn_is_slow t p.p_conn then begin
              (* Slow reader: the response sits undrained, stalling the
                 trunk — head-of-line pressure the queue then feels. *)
              Metrics.gauge_add st.stalls 1;
              let (_ : Engine.timer) =
                Engine.after st.eng t.cfg.slow_delay_ns (fun () ->
                    Metrics.gauge_add st.stalls (-1);
                    pump t j qd)
              in
              ()
            end
            else pump t j qd
        | Types.Failed _ -> hang_up st qd
        | Types.Pushed | Types.Accepted _ -> ())

and pump t j qd =
  let st = t.stations.(j) in
  if Queue.is_empty st.pend then
    if st.shutting && may_hang_up t st then hang_up st qd
    else Queue.push qd st.idle
  else begin
    let p = Queue.pop st.pend in
    Metrics.gauge_add st.qdepth (-1);
    issue t j qd p
  end

(* Admission: idle trunk -> issue now; room in the queue and a trunk
   left to drain it -> park the request; otherwise -> shed. A station
   keeps a trunk until the last offered event has run ([may_hang_up]),
   so only a trunk lost to a fault leaves it with none. This is the
   only place load is refused, and it is counted, so offered = admitted
   + dropped and, once the run drains, admitted = completed. *)
let enqueue t j p =
  let st = t.stations.(j) in
  Metrics.incr st.offered;
  if not (Queue.is_empty st.idle) then begin
    Metrics.incr st.admitted;
    issue t j (Queue.pop st.idle) p
  end
  else if Queue.length st.pend >= t.cfg.qcap || st.live = 0 then
    Metrics.incr st.dropped
  else begin
    Metrics.incr st.admitted;
    Queue.push p st.pend;
    Metrics.gauge_add st.qdepth 1
  end

(* Every offered-side event counts in [t.offers] from [offer] until it
   ends with [settle], after scheduling its successors, so the count
   reaches zero once, when the offered side is done. Then each shutting
   station closes the trunk it kept, on its own engine. *)
let offer t eng time thunk =
  t.offers <- t.offers + 1;
  let (_ : Engine.timer) = Engine.at eng time thunk in
  ()

let settle t =
  t.offers <- t.offers - 1;
  if t.offers = 0 then
    Array.iter
      (fun st ->
        if st.shutting && not (Queue.is_empty st.idle) then
          let (_ : Engine.timer) =
            Engine.after st.eng 0L (fun () -> hang_up_idle t st)
          in
          ())
      t.stations

(* Deliver an offered request to the shard that owns its connection, on
   that shard's clock, at the arrival timestamp. *)
let deliver t j p =
  offer t t.engines.(j) p.p_born (fun () ->
      enqueue t j p;
      settle t)

(* ---- the offered side: arrivals, churn, incast ---- *)

let fresh_conn t =
  let c = t.eph in
  t.eph <- t.eph + 1;
  c

let digest_mix d ~rel ~conn ~key =
  mix64
    (Int64.logxor d
       (Int64.add rel
          (Int64.mul golden (Int64.of_int ((conn * 2_097_169) + key)))))

let rec arrival_fire t i ts =
  let st = t.stations.(i) in
  let conn, target =
    if Rng.float st.rng < t.cfg.short_frac || st.n_active = 0 then
      (* a fresh short-lived flow; the NIC steers it by 5-tuple *)
      let c = fresh_conn t in
      (c, rss_target t.rss c)
    else (st.active.(Rng.int st.rng st.n_active), i)
  in
  let key = Workload.next_key st.wl in
  let get = Workload.is_get st.wl ~read_fraction:t.cfg.read_fraction in
  st.digest <- digest_mix st.digest ~rel:(Int64.sub ts t.t0) ~conn ~key;
  deliver t target { p_conn = conn; p_born = ts; p_key = key; p_get = get };
  schedule_arrival t i ~now:ts;
  settle t

(* A station's share of the global offered rate follows its share of
   the long-lived population (churn moves it); zero-share stations
   re-probe on a fixed cadence rather than drawing from the RNG, so the
   stream stays aligned. *)
and schedule_arrival t i ~now =
  let st = t.stations.(i) in
  if Int64.compare now t.deadline >= 0 then ()
  else
    let share = float_of_int st.n_active /. float_of_int t.cfg.conns in
    match Arrivals.next st.arr ~now ~rate_per_ns:(t.rate_per_ns *. share) with
    | Some ts when Int64.compare ts t.deadline < 0 ->
        offer t st.eng ts (fun () -> arrival_fire t i ts)
    | Some _ -> ()
    | None ->
        (* Zero share right now (churn drained this station): re-probe on
           a fixed cadence, in logical time so the offered stream never
           reads the service-perturbed clock. A re-probe at or past the
           deadline would offer nothing. *)
        let again = Int64.add now 100_000L in
        if Int64.compare again t.deadline < 0 then
          offer t st.eng again (fun () ->
              schedule_arrival t i ~now:again;
              settle t)

let rec churn_fire t i ts =
  let st = t.stations.(i) in
  if st.n_active > 0 then begin
    let k = Rng.int st.rng st.n_active in
    st.active.(k) <- st.active.(st.n_active - 1);
    st.n_active <- st.n_active - 1;
    Metrics.incr st.churned;
    (* The replacement flow hashes wherever RSS sends it — churn is
       exactly how per-shard load drifts off the rebalanced placement. *)
    let c = fresh_conn t in
    let j = rss_target t.rss c in
    let (_ : Engine.timer) =
      Engine.at t.engines.(j) ts (fun () ->
          let sj = t.stations.(j) in
          sj.active.(sj.n_active) <- c;
          sj.n_active <- sj.n_active + 1)
    in
    ()
  end;
  schedule_churn t i ~now:ts

and schedule_churn t i ~now =
  let st = t.stations.(i) in
  if t.cfg.churn_per_s <= 0.0 || Int64.compare now t.deadline >= 0 then ()
  else
    let rate =
      t.cfg.churn_per_s /. 1e9
      *. (float_of_int st.n_active /. float_of_int t.cfg.conns)
    in
    if rate <= 0.0 then begin
      let again = Int64.add now 100_000L in
      let (_ : Engine.timer) =
        Engine.at st.eng again (fun () -> schedule_churn t i ~now:again)
      in
      ()
    end
    else
      let gap = Float.max 1.0 (Rng.exponential st.rng (1.0 /. rate)) in
      let ts = Int64.add now (Int64.of_float gap) in
      if Int64.compare ts t.deadline < 0 then begin
        let (_ : Engine.timer) =
          Engine.at st.eng ts (fun () -> churn_fire t i ts)
        in
        ()
      end

(* Incast: every [incast_every_ns], [incast_fanin] requests land on one
   shard at the same instant, victims drawn from that shard's own
   population — the fan-in pattern that makes p99.9 diverge from p50. *)
let rec incast_fire t ~burst ts =
  let j = burst mod t.n in
  let st = t.stations.(j) in
  for _k = 1 to t.cfg.incast_fanin do
    let conn =
      if st.n_active = 0 then fresh_conn t
      else st.active.(Rng.int t.inc_rng st.n_active)
    in
    let key = Workload.next_key t.inc_wl in
    t.inc_digest <-
      digest_mix t.inc_digest ~rel:(Int64.sub ts t.t0) ~conn ~key;
    deliver t j { p_conn = conn; p_born = ts; p_key = key; p_get = true }
  done;
  schedule_incast t ~burst:(burst + 1) ~now:ts;
  settle t

and schedule_incast t ~burst ~now =
  if Int64.compare t.cfg.incast_every_ns 0L <= 0 || t.cfg.incast_fanin <= 0
  then ()
  else
    let ts = Int64.add now t.cfg.incast_every_ns in
    if Int64.compare ts t.deadline < 0 then
      offer t t.engines.(0) ts (fun () -> incast_fire t ~burst ts)

(* ---- run stats ---- *)

type shard_stats = {
  ls_shard : int;
  ls_conns : int;  (* long-lived population at end of run *)
  ls_offered : int;
  ls_admitted : int;
  ls_shed : int;
  ls_done : int;
  ls_inwin : int;
  ls_churn : int;
  ls_qdepth_hwm : int;
  ls_stall_hwm : int;
  ls_lat : Histogram.t;
}

type stats = {
  l_scenario : string;
  l_shards : int;
  l_conns : int;
  l_seed : int64;
  l_capacity : float;  (* calibrated closed-loop ops/s; 0 if rate forced *)
  l_offered_rate : float;  (* ops/s *)
  l_duration_ns : int64;
  l_offered : int;
  l_admitted : int;
  l_shed : int;
  l_done : int;
  l_inwin : int;
  l_churn : int;
  l_goodput : float;  (* in-window completed ops/s *)
  l_digest : int64;
  l_lat : Histogram.t;
  l_per_shard : shard_stats array;
  l_offload : bool;
  l_offload_resident : int;  (* hot keys pre-inserted per shard *)
  l_offload_hits : int;  (* device-table hits, summed over shards *)
  l_offload_lookups : int;
  l_host_cpu_ns : int64;  (* total host busy ns, window open -> drained *)
}

(* ---- world construction ---- *)

let build_stations ~(scn : Scenario.t) ~n ~seed =
  let dist = key_dist scn in
  Array.init n (fun id ->
      let own rest = Metrics.instance (Metrics.counter (mname n id rest)) in
      let sh = Shard.create ~id ~programmable:scn.offload ~seed () in
      let arr_rng = Rng.create (substream seed (Int64.of_int (100 + id))) in
      {
        id;
        sh;
        eng = Shard.engine sh;
        arr = Arrivals.create ~spec:scn.arrival ~rng:arr_rng;
        wl =
          Workload.create ~seed:(substream seed (Int64.of_int (200 + id))) dist;
        rng = Rng.create (substream seed (Int64.of_int (300 + id)));
        active = Array.make scn.conns 0;
        n_active = 0;
        pend = Queue.create ();
        idle = Queue.create ();
        shutting = false;
        live = scn.trunks;
        offered = own "offered";
        admitted = own "admitted";
        dropped = own "dropped";
        completed = own "completed";
        churned = own "churned";
        qdepth = Metrics.gauge_instance (Metrics.gauge (mname n id "qdepth"));
        stalls =
          Metrics.gauge_instance (Metrics.gauge (mname n id "slow_stalls"));
        lat = Metrics.hist_instance (Metrics.hist (mname n id "latency_ns"));
        inwin = 0;
        digest = substream seed (Int64.of_int (400 + id));
      })

(* ---- calibration ----

   Saturated ceiling of the same world shape (same shard count, same
   trunks, same key mix): each trunk keeps a window of requests
   outstanding — a plain ping-pong would under-read capacity by ~2x
   because back-to-back pushes amortize doorbells and per-packet costs
   exactly the way a backlogged open-loop queue does. Capacity is
   total ops over the slowest shard's elapsed time, and the scenario's
   [offered_mult] is applied to it, so "80% load" means the same thing
   on 1 shard and on 16. *)

let cal_ops_per_trunk = 200
let cal_window = 8

let rec cal_pop sh wl ~udp ~read_fraction ~value qd ~to_push ~to_pop ~fin =
  let demi = Shard.demi_client sh in
  if !to_pop <= 0 then begin
    (* Elapsed runs to the last completion, not engine drain: closing
       leaves TCP teardown timers (FIN, TIME_WAIT) on the clock that
       would otherwise halve the measured capacity. *)
    let now = Engine.now (Shard.engine sh) in
    if Int64.compare now !fin > 0 then fin := now;
    match Demi.close demi qd with Ok () | Error _ -> ()
  end
  else
    match Demi.pop demi qd with
    | Error _ -> ()
    | Ok tok ->
        Demi.watch demi tok (function
          | Types.Popped reply ->
              Dk_mem.Sga.free reply;
              decr to_pop;
              if !to_push > 0 then begin
                decr to_push;
                cal_push sh wl ~udp ~read_fraction ~value qd
              end;
              cal_pop sh wl ~udp ~read_fraction ~value qd ~to_push ~to_pop ~fin
          | Types.Failed _ -> (
              match Demi.close demi qd with Ok () | Error _ -> ())
          | Types.Pushed | Types.Accepted _ -> ())

and cal_push sh wl ~udp ~read_fraction ~value qd =
  let demi = Shard.demi_client sh in
  let key = Workload.key_name (Workload.next_key wl) in
  let req =
    if Workload.is_get wl ~read_fraction then Proto.Get key
    else Proto.Set (key, value)
  in
  let sga =
    if udp then Dk_mem.Sga.of_strings [ Proto.udp_request_string req ]
    else Proto.request_sga req
  in
  match Demi.push demi qd sga with
  | Ok ptok -> Demi.watch demi ptok (fun _ -> ())
  | Error _ -> ()

let cal_trunk sh wl ~udp ~read_fraction ~value qd ~fin =
  let w = min cal_window cal_ops_per_trunk in
  for _k = 1 to w do
    cal_push sh wl ~udp ~read_fraction ~value qd
  done;
  cal_pop sh wl ~udp ~read_fraction ~value qd
    ~to_push:(ref (cal_ops_per_trunk - w))
    ~to_pop:(ref cal_ops_per_trunk) ~fin

let calibrate ~(scn : Scenario.t) ~shards ~seed =
  let n = shards in
  let cseed = substream seed 0x5CA1AB1EL in
  let shs =
    Array.init n (fun id ->
        Shard.create ~id ~programmable:scn.offload ~seed:cseed ())
  in
  let engines = Array.map Shard.engine shs in
  Array.iter (preload scn) shs;
  Array.iter
    (fun sh ->
      match
        if scn.offload then start_server_udp scn n sh else start_server sh
      with
      | Ok () -> ()
      | Error _ -> invalid_arg "Loadgen.calibrate: server start failed")
    shs;
  let value = String.make scn.value_size 'v' in
  let dist = key_dist scn in
  let conns =
    Array.init n (fun i ->
        Array.init scn.trunks (fun k ->
            let wl =
              Workload.create
                ~seed:(substream cseed (Int64.of_int ((i * 1000) + k)))
                dist
            in
            let trunk =
              if scn.offload then connect_client_udp shs.(i) k
              else connect_client shs.(i)
            in
            match trunk with
            | Ok qd -> (i, qd, wl)
            | Error _ -> invalid_arg "Loadgen.calibrate: connect failed"))
    |> Array.to_list |> Array.concat
  in
  let starts = Array.map Engine.now engines in
  let fins = Array.map (fun s -> ref s) starts in
  Array.iter
    (fun (i, qd, wl) ->
      cal_trunk shs.(i) wl ~udp:scn.offload ~read_fraction:scn.read_fraction
        ~value qd ~fin:fins.(i))
    conns;
  Engine.run_group engines;
  let elapsed =
    Array.to_list (Array.mapi (fun i f -> Int64.sub !f starts.(i)) fins)
    |> List.fold_left (fun a x -> if Int64.compare x a > 0 then x else a) 1L
  in
  let total = n * scn.trunks * cal_ops_per_trunk in
  float_of_int total /. Int64.to_float elapsed *. 1e9

(* ---- the run ---- *)

let run ?drive ?offered_rate ~(scn : Scenario.t) ~shards ~seed () =
  let n = shards in
  if n <= 0 then invalid_arg "Loadgen.run: shards must be positive";
  let capacity, rate_s =
    match offered_rate with
    | Some r -> (0.0, r)
    | None ->
        let c = calibrate ~scn ~shards:n ~seed in
        (c, c *. scn.offered_mult)
  in
  let stations = build_stations ~scn ~n ~seed in
  let engines = Array.map (fun st -> st.eng) stations in
  let rss = Rss.create ~queues:n () in
  Runtime.rebalance rss ~flows:scn.conns ~dst_port:kv_port;
  for c = 0 to scn.conns - 1 do
    let st = stations.(rss_target rss c) in
    st.active.(st.n_active) <- c;
    st.n_active <- st.n_active + 1
  done;
  Array.iter
    (fun st ->
      preload scn st.sh;
      match
        if scn.offload then start_server_udp scn n st.sh
        else start_server st.sh
      with
      | Ok () -> ()
      | Error _ -> invalid_arg "Loadgen.run: server start failed")
    stations;
  Array.iter
    (fun st ->
      for k = 0 to scn.trunks - 1 do
        match
          if scn.offload then connect_client_udp st.sh k
          else connect_client st.sh
        with
        | Ok qd -> Queue.push qd st.idle
        | Error _ -> invalid_arg "Loadgen.run: connect failed"
      done)
    stations;
  (* The offered window opens once every shard is past setup: trunk
     connects block on their own engines, so clocks differ here. *)
  let t0 =
    Array.fold_left
      (fun a e -> if Int64.compare (Engine.now e) a > 0 then Engine.now e else a)
      0L engines
  in
  (* Host-CPU meter baseline: everything consumed from here on is the
     run's own busy time (setup/preload/population excluded). *)
  let host_cpu0 =
    Array.fold_left (fun a e -> Int64.add a (Engine.consumed e)) 0L engines
  in
  let deadline =
    Int64.add t0 (Int64.mul (Int64.of_int scn.duration_ms) 1_000_000L)
  in
  let t =
    {
      cfg = scn;
      n;
      seed;
      stations;
      engines;
      rss;
      value = String.make scn.value_size 'v';
      t0;
      deadline;
      rate_per_ns = rate_s /. 1e9;
      inc_rng = Rng.create (substream seed 500L);
      inc_wl = Workload.create ~seed:(substream seed 600L) (key_dist scn);
      inc_digest = substream seed 700L;
      eph = scn.conns;
      offers = 0;
    }
  in
  Array.iter
    (fun st ->
      schedule_arrival t st.id ~now:t0;
      schedule_churn t st.id ~now:t0;
      (* At the deadline the offered window closes: busy trunks drain
         the queue then hang up; idle trunks hang up now, bar the last
         while offered events are pending. *)
      let (_ : Engine.timer) =
        Engine.at st.eng deadline (fun () ->
            st.shutting <- true;
            hang_up_idle t st)
      in
      ())
    stations;
  schedule_incast t ~burst:0 ~now:t0;
  (match drive with
  | Some f -> f engines
  | None -> Engine.run_group engines);
  let per_shard =
    Array.map
      (fun st ->
        {
          ls_shard = st.id;
          ls_conns = st.n_active;
          ls_offered = Metrics.value st.offered;
          ls_admitted = Metrics.value st.admitted;
          ls_shed = Metrics.value st.dropped;
          ls_done = Metrics.value st.completed;
          ls_inwin = st.inwin;
          ls_churn = Metrics.value st.churned;
          ls_qdepth_hwm = Metrics.gauge_hwm st.qdepth;
          ls_stall_hwm = Metrics.gauge_hwm st.stalls;
          ls_lat = Metrics.hist_data st.lat;
        })
      stations
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 per_shard in
  let merged =
    Array.fold_left
      (fun acc s -> Histogram.merge acc s.ls_lat)
      (Histogram.create ()) per_shard
  in
  let duration_ns = Int64.sub deadline t0 in
  let total_done = sum (fun s -> s.ls_done) in
  (* Goodput only counts work served while load was offered: completions
     in the post-deadline drain are late by definition, and counting
     them would let an overloaded run report goodput above capacity. *)
  let goodput =
    float_of_int (sum (fun s -> s.ls_inwin))
    /. Int64.to_float duration_ns *. 1e9
  in
  Metrics.set
    (Metrics.gauge "apps.loadgen.goodput_kops")
    (int_of_float (goodput /. 1e3));
  let digest =
    Array.fold_left
      (fun a st -> mix64 (Int64.logxor a st.digest))
      t.inc_digest stations
  in
  let host_cpu_ns =
    Int64.sub
      (Array.fold_left (fun a e -> Int64.add a (Engine.consumed e)) 0L engines)
      host_cpu0
  in
  let off_hits, off_lookups =
    Array.fold_left
      (fun (h, l) st ->
        match Demi.offload_stats (Shard.demi_server st.sh) with
        | None -> (h, l)
        | Some s ->
            (h + s.Dk_device.Table.hits, l + s.Dk_device.Table.lookups))
      (0, 0) stations
  in
  {
    l_scenario = scn.name;
    l_shards = n;
    l_conns = scn.conns;
    l_seed = seed;
    l_capacity = capacity;
    l_offered_rate = rate_s;
    l_duration_ns = duration_ns;
    l_offered = sum (fun s -> s.ls_offered);
    l_admitted = sum (fun s -> s.ls_admitted);
    l_shed = sum (fun s -> s.ls_shed);
    l_done = total_done;
    l_inwin = sum (fun s -> s.ls_inwin);
    l_churn = sum (fun s -> s.ls_churn);
    l_goodput = goodput;
    l_digest = digest;
    l_lat = merged;
    l_per_shard = per_shard;
    l_offload = scn.offload;
    l_offload_resident = offload_resident scn;
    l_offload_hits = off_hits;
    l_offload_lookups = off_lookups;
    l_host_cpu_ns = host_cpu_ns;
  }

(* ---- deterministic JSON export ---- *)

let json_hist h =
  Printf.sprintf
    "{\"count\":%d,\"mean\":%.1f,\"p50\":%Ld,\"p99\":%Ld,\"p999\":%Ld,\"max\":%Ld}"
    (Histogram.count h) (Histogram.mean h)
    (Histogram.quantile h 0.5)
    (Histogram.quantile h 0.99)
    (Histogram.quantile h 0.999)
    (Histogram.max h)

let stats_json s =
  let b = Buffer.create 1024 in
  (* The offload object appears only in offload mode, so non-offload
     output stays byte-identical to the pre-offload format. *)
  let offload_fields =
    if not s.l_offload then ""
    else
      Printf.sprintf
        "\"offload\":{\"resident\":%d,\"hits\":%d,\"lookups\":%d,\
         \"host_cpu_ns\":%Ld},"
        s.l_offload_resident s.l_offload_hits s.l_offload_lookups
        s.l_host_cpu_ns
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"scenario\":%S,\"shards\":%d,\"conns\":%d,\"seed\":%Ld,\
        \"capacity_ops_s\":%.3f,\"offered_ops_s\":%.3f,\"duration_ns\":%Ld,\
        \"offered\":%d,\"admitted\":%d,\"dropped\":%d,\"completed\":%d,\
        \"completed_in_window\":%d,\"churned\":%d,\"goodput_ops_s\":%.3f,\
        \"digest\":\"0x%016Lx\",\"latency_ns\":%s,%s\"per_shard\":["
       s.l_scenario s.l_shards s.l_conns s.l_seed s.l_capacity
       s.l_offered_rate s.l_duration_ns s.l_offered s.l_admitted s.l_shed
       s.l_done s.l_inwin s.l_churn s.l_goodput s.l_digest
       (json_hist s.l_lat) offload_fields);
  Array.iteri
    (fun i sh ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"shard\":%d,\"conns\":%d,\"offered\":%d,\"admitted\":%d,\
            \"dropped\":%d,\"completed\":%d,\"completed_in_window\":%d,\
            \"churned\":%d,\"qdepth_hwm\":%d,\"stall_hwm\":%d,\
            \"latency_ns\":%s}"
           sh.ls_shard sh.ls_conns sh.ls_offered sh.ls_admitted sh.ls_shed
           sh.ls_done sh.ls_inwin sh.ls_churn sh.ls_qdepth_hwm sh.ls_stall_hwm
           (json_hist sh.ls_lat)))
    s.l_per_shard;
  Buffer.add_string b "]}";
  Buffer.contents b
