(* Layer replays: layers whose calls happen inside the library, out of
   the benchmark's reach, are measured by calling their public
   functions directly on the workload's own inputs.

   - framing: [Framing.encode]/[feed]/[next] over the workload's TCP
     messages, fed in MSS-sized chunks with the workload's in-flight
     depth buffered before draining;
   - prog: [Prog.eval_pipeline] of the kv GET pipeline over the
     workload's request datagrams, against a stand-in for the device
     table holding the same resident keys;
   - kv setup: the world build, preload and trunk connects that
     [Loadgen.run] performs before its first event, timed apart. *)

module Framing = Dk_net.Framing
module Prog = Dk_device.Prog
module Proto = Dk_apps.Proto
module Workload = Dk_apps.Workload
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module Shard = Dk_shard_rt.Shard
module Scenario = Dk_loadgen.Scenario
module Demi = Demikernel.Demi
module Addr = Dk_net.Addr
module Rss = Dk_device.Rss

let mss = Dk_net.Tcp.default_config.Dk_net.Tcp.mss

type framing = {
  ns_per_msg : float;
  words_per_msg : float;
  backlog_hwm : int;
  mismatches : int;
}

let no_framing = { ns_per_msg = 0.0; words_per_msg = 0.0; backlog_hwm = 0; mismatches = 0 }

(* [msgs] are segment lists; [depth] of them are fed before the decoder
   is drained, as a receiver sees a window of messages in flight. *)
let framing msgs ~depth =
  let n = Array.length msgs in
  if n = 0 then no_framing
  else begin
    let dec = Framing.create () in
    let hwm = ref 0 and bad = ref 0 in
    let feed segs =
      let wire = Framing.encode segs in
      let len = String.length wire in
      let rec chunks off =
        if off < len then begin
          let k = min mss (len - off) in
          Framing.feed dec (String.sub wire off k);
          let b = Framing.buffered dec in
          if b > !hwm then hwm := b;
          chunks (off + k)
        end
      in
      chunks 0
    in
    let drain i =
      match Framing.next dec with
      | Some segs when segs = msgs.(i) -> ()
      | Some _ | None -> incr bad
    in
    let w0 = Gc.minor_words () in
    let t0 = Trace.now () in
    for i = 0 to n - 1 do
      feed msgs.(i);
      if i >= depth - 1 then drain (i - depth + 1)
    done;
    for i = max 0 (n - depth + 1) to n - 1 do
      drain i
    done;
    let t1 = Trace.now () in
    let words = Gc.minor_words () -. w0 in
    {
      ns_per_msg = float_of_int (t1 - t0) /. float_of_int n;
      words_per_msg = words /. float_of_int n;
      backlog_hwm = !hwm;
      mismatches = !bad;
    }
  end

(* The kv request stream a scenario offers: same key law and mix. *)
let kv_requests (scn : Scenario.t) ~seed ~n =
  let dist =
    if scn.zipf_theta <= 0.0 then Workload.Uniform scn.keys
    else Workload.Zipf { n = scn.keys; theta = scn.zipf_theta }
  in
  let wl = Workload.create ~seed dist in
  let value = String.make scn.value_size 'v' in
  ( dist,
    Array.init n (fun _ ->
        let key = Workload.key_name (Workload.next_key wl) in
        if Workload.is_get wl ~read_fraction:scn.read_fraction then Proto.Get key
        else Proto.Set (key, value)) )

(* Request and response segments of each kv op over a TCP trunk. *)
let kv_messages (scn : Scenario.t) ~seed ~n =
  let _, reqs = kv_requests scn ~seed ~n in
  let value = String.make scn.value_size 'v' in
  Array.concat
    (Array.to_list
       (Array.map
          (fun r ->
            let resp = match r with Proto.Get _ -> Proto.Value value | _ -> Proto.Stored in
            [| Proto.request_segments r; Proto.response_segments resp |])
          reqs))

type prog = { ns_per_frame : float; wrong : int }

let no_prog = { ns_per_frame = 0.0; wrong = 0 }

let prog (scn : Scenario.t) ~seed ~n =
  let dist, reqs = kv_requests scn ~seed ~n in
  let value = String.make scn.value_size 'v' in
  let resident = Hashtbl.create 4096 in
  for i = 0 to Workload.hot_prefix dist ~mass:scn.offload_hit - 1 do
    Hashtbl.replace resident (Workload.key_name i) value
  done;
  let lookup k = Hashtbl.find_opt resident k in
  let pipeline = Demi.get_pipeline ~max_value:(max 64 scn.value_size) in
  let frames = Array.map Proto.udp_request_string reqs in
  let verdicts = Array.make n Prog.Dropped in
  let t0 = Trace.now () in
  for i = 0 to n - 1 do
    verdicts.(i) <- Prog.eval_pipeline ~lookup pipeline frames.(i)
  done;
  let t1 = Trace.now () in
  (* A hit must be answered with the resident value; everything else
     must reach the host unchanged. *)
  let wrong = ref 0 in
  Array.iteri
    (fun i v ->
      match (reqs.(i), v) with
      | Proto.Get k, Prog.Responded r ->
          if Option.is_none (lookup k) || r <> Proto.udp_response_string (Proto.Value value) then incr wrong
      | Proto.Get k, Prog.Deliver f -> if Option.is_some (lookup k) || f <> frames.(i) then incr wrong
      | Proto.Get _, _ -> incr wrong
      | _, Prog.Deliver f -> if f <> frames.(i) then incr wrong
      | _, _ -> incr wrong)
    verdicts;
  { ns_per_frame = float_of_int (t1 - t0) /. float_of_int n; wrong = !wrong }

let kv_port = 6379

(* The set-up [Loadgen.run] performs, phase by phase: shard worlds,
   store preload plus device-table population, server start and trunk
   connects. Returns host ns per phase. *)
let kv_setup (scn : Scenario.t) ~shards ~seed =
  let t0 = Trace.now () in
  let shs =
    Array.init shards (fun id ->
        Shard.create ~id ~programmable:scn.offload ~seed:(Int64.of_int seed) ())
  in
  (* RSS placement of the modeled connections: weigh the indirection
     buckets by each connection's 5-tuple, rebalance, then steer. *)
  let rss = Rss.create ~queues:shards () in
  let tuple c = (Addr.ip_of_string "10.200.0.0" + c, 40000 + (c land 0x3fff)) in
  let dst_ip = Addr.ip_of_string "10.255.0.100" in
  let weights = Array.make (Rss.table_size rss) 0 in
  for c = 0 to scn.conns - 1 do
    let src_ip, src_port = tuple c in
    let b =
      Rss.hash_flow ~src_ip ~src_port ~dst_ip ~dst_port:kv_port ~proto:6 mod Rss.table_size rss
    in
    weights.(b) <- weights.(b) + 1
  done;
  Rss.rebalance rss weights;
  let per_shard = Array.make shards 0 in
  for c = 0 to scn.conns - 1 do
    let src_ip, src_port = tuple c in
    let j = Rss.select rss ~src_ip ~src_port ~dst_ip ~dst_port:kv_port ~proto:6 in
    per_shard.(j) <- per_shard.(j) + 1
  done;
  let t1 = Trace.now () in
  let value = String.make scn.value_size 'v' in
  Array.iter
    (fun sh ->
      for k = 0 to scn.keys - 1 do
        ignore (Kv.set (Shard.kv sh) (Workload.key_name k) value : bool)
      done)
    shs;
  let t2 = Trace.now () in
  let ( let* ) = Result.bind in
  let start sh =
    let demi = Shard.demi_server sh in
    if scn.offload then begin
      let prefix = if shards = 1 then "" else Shard.obs_name (Shard.id sh) "" in
      let client_ip = (Shard.client_host sh).Dk_apps.Sim_setup.ip in
      let rec go k =
        if k >= scn.trunks then Ok ()
        else
          let* srv =
            Kv_app.start_udp_offload_server ~demi ~port:(kv_port + k) ~kv:(Shard.kv sh)
              ~obs_prefix:prefix ~capacity:(max 16 scn.keys)
              ~max_value:(max 64 scn.value_size) ()
          in
          let* () = Kv_app.set_udp_peer srv (Addr.endpoint client_ip (40000 + k)) in
          go (k + 1)
      in
      go 0
    end
    else
      let* _srv = Kv_app.start_tcp_server ~demi ~port:kv_port ~kv:(Shard.kv sh) in
      Ok ()
  in
  let trunks = ref [] in
  let trunk sh k =
    let demi = Shard.demi_client sh in
    let* qd = Demi.socket demi (if scn.offload then `Udp else `Tcp) in
    trunks := (demi, qd) :: !trunks;
    let* () = if scn.offload then Demi.bind demi qd ~port:(40000 + k) else Ok () in
    let port = if scn.offload then kv_port + k else kv_port in
    Demi.connect demi qd ~dst:(Shard.server_endpoint sh port)
  in
  let ok = ref true in
  Array.iter
    (fun sh ->
      (match start sh with Ok () -> () | Error _ -> ok := false);
      for k = 0 to scn.trunks - 1 do
        match trunk sh k with Ok () -> () | Error _ -> ok := false
      done)
    shs;
  let t3 = Trace.now () in
  let populate =
    if scn.offload then
      Workload.hot_prefix
        (Workload.Zipf { n = scn.keys; theta = scn.zipf_theta })
        ~mass:scn.offload_hit
    else 0
  in
  Array.iter
    (fun sh ->
      for i = 0 to populate - 1 do
        match Demi.offload_insert (Shard.demi_server sh) (Workload.key_name i) value with
        | Ok () -> ()
        | Error `Rejected -> ok := false
      done)
    shs;
  let t4 = Trace.now () in
  List.iter
    (fun (demi, qd) -> match Demi.close demi qd with Ok () | Error _ -> ())
    !trunks;
  if not !ok then failwith "kv setup replay: a server, trunk or table insert failed";
  [
    ("setup.world_s", t1 - t0);
    ("setup.preload_s", t2 - t1 + (t4 - t3));
    ("setup.connect_s", t3 - t2);
    ("setup.warmup_s", 0);
  ]
