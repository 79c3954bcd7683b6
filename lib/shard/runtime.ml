(* The multi-shard run: N shards, RSS flow steering, a full mailbox
   mesh, and the two closed-loop workloads (echo, KV) the evaluation
   drives through it.

   Scheduling: every shard's engine advances independently; the group
   scheduler ([Engine.run_group]) always fires the globally earliest
   event, tie-broken to the lowest shard id. With N=1 that IS the
   plain single-engine loop, which is what makes a one-shard run
   bit-identical to the pre-shard engine.

   Cross-shard traffic: a request arriving at shard [i] whose home is
   shard [j] (first payload byte for echo, key ownership [idx mod n]
   for KV) is forwarded over the [i]->[j] mailbox; the owner applies
   it against its own state and sends the reply back over [j]->[i];
   only then does [i] answer its client. Nothing else crosses shard
   boundaries — values travel as copies inside mailbox messages, never
   as another shard's buffers. *)

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Rng = Dk_sim.Rng
module Fault = Dk_fault.Fault
module Metrics = Dk_obs.Metrics
module Histogram = Dk_sim.Histogram
module Rss = Dk_device.Rss
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Proto = Dk_apps.Proto
module Kv = Dk_apps.Kv
module Event_loop = Dk_sched.Event_loop

type msg =
  | Probe of string (* echo: touch the owner shard's state *)
  | Probe_ack of string
  | Kv_req of Proto.request
  | Kv_resp of Proto.response

type envelope = { req_id : int; origin : int; payload : msg }

type t = {
  n : int;
  xfrac : float;
  shards : Shard.t array;
  engines : Engine.t array;
  (* [mailboxes.(src).(dst)]: None on the diagonal. *)
  mailboxes : envelope Xmailbox.t option array array;
  rss : Rss.t;
  (* Continuations for requests this shard forwarded to an owner. *)
  pending : (msg -> unit) Dk_util.Itbl.t array;
  mutable next_req_id : int;
}

let mailbox t ~src ~dst =
  match t.mailboxes.(src).(dst) with
  | Some mb -> mb
  | None -> invalid_arg "Runtime: no self-mailbox"

(* ---- construction ---- *)

let rec create ~n ?(xfrac = 0.0) ?(seed = 42L) ?fault ?cost () =
  if n <= 0 then invalid_arg "Runtime.create: n must be positive";
  if xfrac < 0.0 || xfrac > 1.0 then
    invalid_arg "Runtime.create: xfrac outside [0,1]";
  let shards =
    Array.init n (fun id ->
        let fault_plan =
          match fault with
          | None -> None
          | Some (plan_name, fseed) -> (
              (* Same named plan in every shard's domain, seed offset by
                 shard id: correlated failure mode, independent draws. *)
              match
                Fault.named ~seed:(Int64.add fseed (Int64.of_int id)) plan_name
              with
              | Some p -> Some p
              | None ->
                  invalid_arg
                    (Printf.sprintf "Runtime.create: unknown fault plan %s"
                       plan_name))
        in
        Shard.create ~id ?cost ?fault_plan ~seed ())
  in
  let engines = Array.map Shard.engine shards in
  let mailboxes =
    Array.init n (fun src ->
        Array.init n (fun dst ->
            if src = dst then None
            else
              Some
                (Xmailbox.create ~src ~dst ~src_engine:engines.(src)
                   ~dst_engine:engines.(dst) ())))
  in
  let t =
    {
      n;
      xfrac;
      shards;
      engines;
      mailboxes;
      rss = Rss.create ~queues:n ();
      pending = Array.init n (fun _ -> Dk_util.Itbl.create 64);
      next_req_id = 0;
    }
  in
  (* Wire every shard's receive side once, up front. *)
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      match t.mailboxes.(src).(dst) with
      | None -> ()
      | Some mb -> Xmailbox.set_on_recv mb (fun env -> handle_msg t dst env)
    done
  done;
  t

(* ---- cross-shard request/reply ---- *)

and send_retrying t ~src ~dst env =
  (* The ring being full is backpressure, not loss: park the message on
     the sender's clock and retry after a hop. Terminates because the
     destination drains its ring as its engine runs. *)
  let mb = mailbox t ~src ~dst in
  if not (Xmailbox.try_send mb env) then
    let (_ : Engine.timer) =
      Engine.after t.engines.(src) 500L (fun () ->
          send_retrying t ~src ~dst env)
    in
    ()

and request t ~src ~dst payload k =
  let req_id = t.next_req_id in
  t.next_req_id <- req_id + 1;
  Dk_util.Itbl.replace t.pending.(src) req_id k;
  send_retrying t ~src ~dst { req_id; origin = src; payload }

and handle_msg t self env =
  match env.payload with
  | Probe body ->
      (* We own the state the probe touches: charge the app cost on OUR
         clock, then ack back to the origin. *)
      Engine.consume t.engines.(self) (Shard.cost t.shards.(self)).Cost.app_request;
      send_retrying t ~src:self ~dst:env.origin
        { env with origin = self; payload = Probe_ack body }
  | Kv_req req ->
      Engine.consume t.engines.(self) (Shard.cost t.shards.(self)).Cost.app_request;
      (* Copy semantics ([Kv.apply], not the zero-copy path): the value
         crosses a shard boundary, so it must leave our pools. *)
      let resp = Kv.apply (Shard.kv t.shards.(self)) req in
      send_retrying t ~src:self ~dst:env.origin
        { env with origin = self; payload = Kv_resp resp }
  | Probe_ack _ | Kv_resp _ -> (
      match Dk_util.Itbl.find_opt t.pending.(self) env.req_id with
      | None -> ()
      | Some k ->
          Dk_util.Itbl.remove t.pending.(self) env.req_id;
          k env.payload)

(* ---- RSS flow placement ---- *)

(* Synthetic admission-time 5-tuples for client connections [0, flows):
   the NIC hashes each into the indirection table to pick the owning
   shard, then (rebalanced, the `ethtool -X` move) the table is
   repointed so per-queue load equalises. The simulation then
   instantiates each flow on the client host of the shard RSS steered
   it to — the core the NIC delivers the flow's frames to is the core
   that runs it. *)
let flow_tuple c ~dst_port =
  let src_ip = 0x0ac80000 (* 10.200.0.0 *) + c in
  let src_port = 40000 + (c land 0x3fff) in
  let dst_ip = 0x0aff0064 (* 10.255.0.100 *) in
  (src_ip, src_port, dst_ip, dst_port, 6)

let flow_owner rss c ~dst_port =
  let src_ip, src_port, dst_ip, dst_port, proto = flow_tuple c ~dst_port in
  Rss.select rss ~src_ip ~src_port ~dst_ip ~dst_port ~proto

let rebalance rss ~flows ~dst_port =
  let weights = Array.make (Rss.table_size rss) 0 in
  for c = 0 to flows - 1 do
    let src_ip, src_port, dst_ip, dst_port, proto = flow_tuple c ~dst_port in
    let b =
      Rss.hash_flow ~src_ip ~src_port ~dst_ip ~dst_port ~proto
      mod Rss.table_size rss
    in
    weights.(b) <- weights.(b) + 1
  done;
  Rss.rebalance rss weights

(* ---- per-run bookkeeping ---- *)

(* One run's counts on one shard: instances of the shard's
   instruments, so the run reads exactly its own events. *)
type counts = {
  flows : Metrics.counter;
  ops : Metrics.counter;
  remote : Metrics.counter;
  rtt : Metrics.hist;
}

let counts sh =
  {
    flows = Metrics.instance (Shard.flows_counter sh);
    ops = Metrics.instance (Shard.ops_counter sh);
    remote = Metrics.instance (Shard.remote_counter sh);
    rtt = Metrics.hist_instance (Shard.rtt_hist sh);
  }

let place_flows t counts ~flows ~dst_port =
  rebalance t.rss ~flows ~dst_port;
  Array.init flows (fun c ->
      let owner = flow_owner t.rss c ~dst_port in
      Metrics.incr counts.(owner).flows;
      owner)

type shard_stats = {
  shard : int;
  flow_count : int;
  op_count : int;
  remote_count : int;
  elapsed_ns : int64;
  latency : Histogram.t;
}

type stats = {
  per_shard : shard_stats array;
  total_ops : int;
  total_remote : int;
  wall_ns : int64;
}

let finish_stats t counts starts =
  let per_shard =
    Array.init t.n (fun i ->
        {
          shard = i;
          flow_count = Metrics.value counts.(i).flows;
          op_count = Metrics.value counts.(i).ops;
          remote_count = Metrics.value counts.(i).remote;
          elapsed_ns = Int64.sub (Engine.now t.engines.(i)) starts.(i);
          latency = Metrics.hist_data counts.(i).rtt;
        })
  in
  let total_ops = Array.fold_left (fun a s -> a + s.op_count) 0 per_shard in
  let total_remote =
    Array.fold_left (fun a s -> a + s.remote_count) 0 per_shard
  in
  let wall_ns =
    Array.fold_left
      (fun a s -> if Int64.compare s.elapsed_ns a > 0 then s.elapsed_ns else a)
      0L per_shard
  in
  { per_shard; total_ops; total_remote; wall_ns }

(* Draw the home shard for one request: local, or (with probability
   [xfrac]) uniform over the other shards. *)
let draw_home t i =
  if t.n = 1 then i
  else if Rng.bool (Shard.rng t.shards.(i)) t.xfrac then begin
    let k = Rng.int (Shard.rng t.shards.(i)) (t.n - 1) in
    if k >= i then k + 1 else k
  end
  else i

let record_op c dt ~remote =
  Metrics.observe c.rtt dt;
  Metrics.incr c.ops;
  if remote then Metrics.incr c.remote

(* ---- echo workload ---- *)

let echo_port = 7

(* Server side: echo, except a payload whose first byte names another
   shard models state owned elsewhere — the touch is forwarded over
   the mailbox and the echo reply waits for the owner's ack. *)
let echo_reply t i loop qd sga =
  let demi = Shard.demi_server t.shards.(i) in
  let body = Dk_mem.Sga.to_string sga in
  let home =
    if String.length body = 0 then i
    else
      let h = Char.code body.[0] in
      if h < t.n then h else i
  in
  if home = i then Event_loop.send loop qd sga
  else begin
    Demi.sga_free demi sga;
    request t ~src:i ~dst:home (Probe body) (fun reply ->
        let out = match reply with Probe_ack s -> s | _ -> body in
        match Demi.sga_alloc demi out with
        | Error _ -> ()
        | Ok sga' -> Event_loop.send loop qd sga')
  end

(* One event loop per shard serves every connection its listener
   accepts with [reply]; a connection whose pop fails is closed. *)
let start_server t i ~port reply =
  let demi = Shard.demi_server t.shards.(i) in
  let ( let* ) = Result.bind in
  let* lqd = Demi.socket demi `Tcp in
  let* () = Demi.bind demi lqd ~port in
  let* () = Demi.listen demi lqd in
  let loop = Event_loop.create demi in
  Event_loop.on_accept loop lqd (fun qd ->
      Event_loop.on_close loop qd (fun _ ->
          match Demi.close demi qd with Ok () | Error _ -> ());
      Event_loop.on_message loop qd (reply t i loop qd));
  Ok ()

let connect_client t i ~port =
  let demi = Shard.demi_client t.shards.(i) in
  let ( let* ) = Result.bind in
  let* qd = Demi.socket demi `Tcp in
  let* () = Demi.connect demi qd ~dst:(Shard.server_endpoint t.shards.(i) port) in
  Ok qd

(* One closed-loop run: place [flows] by RSS, start a server on every
   shard, connect each flow on its owner, then [start] each flow's first
   round and drive the group until it drains. Connection setup is
   blocking and runs only the owner's engine; shards do not interact
   yet, so doing it in flow order is deterministic. *)
let run ?drive t ~flows ~port ~serve ~start =
  let counts = Array.map counts t.shards in
  let owners = place_flows t counts ~flows ~dst_port:port in
  for i = 0 to t.n - 1 do
    match start_server t i ~port serve with
    | Ok () -> ()
    | Error _ -> invalid_arg "Runtime.run: server start failed"
  done;
  let conns =
    Array.map
      (fun owner ->
        match connect_client t owner ~port with
        | Ok qd -> (owner, qd)
        | Error _ -> invalid_arg "Runtime.run: connect failed")
      owners
  in
  let starts = Array.map Engine.now t.engines in
  Array.iter (fun (owner, qd) -> start owner counts.(owner) qd) conns;
  (match drive with
  | Some f -> f t.engines
  | None -> Engine.run_group t.engines);
  finish_stats t counts starts

let echo_payload ~home ~size =
  let b = Bytes.make (max 1 size) 'e' in
  Bytes.set b 0 (Char.chr (home land 0xff));
  Bytes.to_string b

(* Client side: closed-loop requests over one connection, event-driven
   so the group scheduler interleaves shards fairly. [request home]
   builds the next request for a drawn home shard; [on_reply sga reply]
   frees what the round holds once the answer is in. *)
let rec flow_round t i counts qd ~request ~on_reply ~ops_left =
  let sh = t.shards.(i) in
  let demi = Shard.demi_client sh in
  if ops_left <= 0 then (
    match Demi.close demi qd with Ok () | Error _ -> ())
  else
    let home = draw_home t i in
    match request home with
    | Error _ -> ()
    | Ok sga -> (
        let t0 = Engine.now (Shard.engine sh) in
        (match Demi.push demi qd sga with
        | Ok ptok -> Demi.watch demi ptok (fun _ -> ())
        | Error _ -> ());
        match Demi.pop demi qd with
        | Error _ -> ()
        | Ok tok ->
            Demi.watch demi tok (function
              | Types.Popped reply ->
                  record_op counts
                    (Int64.sub (Engine.now (Shard.engine sh)) t0)
                    ~remote:(home <> i);
                  on_reply sga reply;
                  flow_round t i counts qd ~request ~on_reply
                    ~ops_left:(ops_left - 1)
              | Types.Failed _ -> (
                  match Demi.close demi qd with Ok () | Error _ -> ())
              | Types.Pushed | Types.Accepted _ -> ()))

let run_echo ?drive t ~flows ~size ~rounds =
  run ?drive t ~flows ~port:echo_port ~serve:echo_reply
    ~start:(fun i counts qd ->
      let demi = Shard.demi_client t.shards.(i) in
      flow_round t i counts qd ~ops_left:rounds
        ~request:(fun home -> Demi.sga_alloc demi (echo_payload ~home ~size))
        ~on_reply:(fun sga reply ->
          Demi.sga_free demi reply;
          Demi.sga_free demi sga))

(* ---- KV workload ---- *)

let kv_port = 6379

(* Global key space striped across shards: key index k lives on shard
   [k mod n]. *)
let key_home t key =
  (* Workload.key_name format: "key-%08d". *)
  if String.length key < 5 then 0
  else
    match int_of_string_opt (String.sub key 4 (String.length key - 4)) with
    | Some idx when idx >= 0 -> idx mod t.n
    | Some _ | None -> 0

(* Server side: answer from the local store, or forward the request
   to the key's home shard and answer with its reply. *)
let kv_reply t i loop qd sga =
  let sh = t.shards.(i) in
  Engine.consume (Shard.engine sh) (Shard.cost sh).Cost.app_request;
  (match Proto.request_of_sga sga with
  | None -> ()
  | Some req ->
      let key =
        match req with
        | Proto.Get k | Proto.Del k -> k
        | Proto.Set (k, _) -> k
      in
      let home = key_home t key in
      if home = i then
        Event_loop.send loop qd (Kv.apply_zero_copy (Shard.kv sh) req)
      else
        request t ~src:i ~dst:home (Kv_req req) (fun reply ->
            let resp =
              match reply with Kv_resp r -> r | _ -> Proto.Not_found
            in
            Event_loop.send loop qd (Proto.response_sga resp)));
  Dk_mem.Sga.free sga

(* A GET or SET of a key from [home]'s stripe of the key space. *)
let kv_request t i ~keys_per_shard ~value_size ~read_fraction home =
  let rng = Shard.rng t.shards.(i) in
  let key =
    Dk_apps.Workload.key_name (home + (t.n * Rng.int rng keys_per_shard))
  in
  Ok
    (Proto.request_sga
       (if Rng.bool rng read_fraction then Proto.Get key
        else Proto.Set (key, String.make value_size 'v')))

let preload_kv t ~keys_per_shard ~value_size =
  (* Warm every shard's store directly (no network): key k lives on
     shard [k mod n]. *)
  for i = 0 to t.n - 1 do
    for local = 0 to keys_per_shard - 1 do
      let key = Dk_apps.Workload.key_name (i + (t.n * local)) in
      let (_ : bool) =
        Kv.set (Shard.kv t.shards.(i)) key (String.make value_size 'v')
      in
      ()
    done
  done

let run_kv ?drive t ~flows ~ops_per_flow ~keys_per_shard ~value_size
    ~read_fraction =
  if keys_per_shard <= 0 then invalid_arg "Runtime.run_kv: keys_per_shard";
  preload_kv t ~keys_per_shard ~value_size;
  run ?drive t ~flows ~port:kv_port ~serve:kv_reply ~start:(fun i counts qd ->
      flow_round t i counts qd ~ops_left:ops_per_flow
        ~request:(kv_request t i ~keys_per_shard ~value_size ~read_fraction)
        ~on_reply:(fun _ reply -> Dk_mem.Sga.free reply))

(* ---- accessors ---- *)

let pending_count t =
  Array.fold_left (fun a tbl -> a + Dk_util.Itbl.length tbl) 0 t.pending
let engines t = t.engines
