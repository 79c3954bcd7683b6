(* Closed-loop echo client over one TCP flow on a single shard.

   The benchmark itself plays the client: it allocates each payload
   with [Demi.sga_alloc], issues [Demi.push]/[Demi.pop], polls with
   [Demi.try_wait] and, when nothing is ready, runs one event with
   [Engine.step]. Host time therefore splits cleanly into core calls
   and event steps, and each call is a span in the traced run. Up to
   [window] messages are in flight; each payload is stamped with its
   sequence number over seeded filler, and every reply must equal the
   payload sent. *)

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Rng = Dk_sim.Rng
module Fabric = Dk_device.Fabric
module Sim_setup = Dk_apps.Sim_setup
module Echo = Dk_apps.Echo
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Sga = Dk_mem.Sga
module Buffer = Dk_mem.Buffer

type cfg = {
  size : int;  (** payload bytes *)
  window : int;  (** messages in flight *)
  warmup : int;  (** untimed ops after the handshake *)
  ops : int;  (** timed ops per round *)
  batch : int;  (** ops per host-time sample *)
}

let port = 7

type world = {
  engine : Engine.t;
  client : Demi.t;
  server : Demi.t;
  qd : Types.qd;
}

let build ~seed =
  let engine = Engine.create () in
  let cost = Cost.default in
  let fabric = Fabric.create ~engine ~cost ~seed () in
  let a = Sim_setup.add_host ~engine ~cost ~fabric ~index:1 ~ip:"10.0.0.1" () in
  let b = Sim_setup.add_host ~engine ~cost ~fabric ~index:2 ~ip:"10.0.0.2" () in
  let client = Sim_setup.demi_of_host ~engine ~cost a () in
  let server = Sim_setup.demi_of_host ~engine ~cost b () in
  (engine, client, server, b)

let connect (engine, client, server, b) =
  let qd =
    let ( let* ) = Result.bind in
    let* () = Echo.start_demi_server ~demi:server ~port in
    let* qd = Demi.socket client `Tcp in
    let* () = Demi.connect client qd ~dst:(Sim_setup.endpoint b port) in
    Ok qd
  in
  match qd with
  | Ok qd -> { engine; client; server; qd }
  | Error _ -> failwith "echo connect failed"

type client = {
  w : world;
  cfg : cfg;
  expect : Bytes.t array;  (** payload of the message in each slot *)
  sent : Sga.t array;
  ptok : int array;  (** push token per slot, -1 once redeemed *)
  born : int array;  (** virtual push time per slot *)
  lat : int array;  (** virtual latency of each timed op *)
  stamps : int array;  (** host clock at each batch boundary *)
  mutable nstamps : int;
  mutable timed_from : int;  (** first op of the timed window *)
  mutable next : int;  (** next sequence number to push *)
  mutable fin : int;  (** replies verified *)
  mutable pop : int;  (** outstanding pop token, -1 if none *)
  mutable bad : int;  (** replies that differed from the payload *)
  mutable broken : string option;
  mutable steps : int;
  mutable pend_n : int;
  mutable pend_sum : int;
  mutable pend_hwm : int;
}

(* Seeded filler per slot; bytes 0-7 carry the sequence number. *)
let client w cfg ~seed =
  let rng = Rng.create seed in
  let slots = max 1 cfg.window in
  {
    w;
    cfg;
    expect =
      Array.init slots (fun _ ->
          Bytes.init cfg.size (fun _ -> Char.chr (97 + Rng.int rng 26)));
    sent = Array.make slots Sga.empty;
    ptok = Array.make slots (-1);
    born = Array.make slots 0;
    lat = Array.make cfg.ops 0;
    stamps = Array.make ((cfg.ops / cfg.batch) + 2) 0;
    nstamps = 0;
    timed_from = max_int;
    next = 0;
    fin = 0;
    pop = -1;
    bad = 0;
    broken = None;
    steps = 0;
    pend_n = 0;
    pend_sum = 0;
    pend_hwm = 0;
  }

let digest c = Digest.to_hex (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list c.expect)))

let rec bytes_eq st off exp pos len =
  len = 0
  || Bytes.unsafe_get st off = Bytes.unsafe_get exp pos
     && bytes_eq st (off + 1) exp (pos + 1) (len - 1)

let rec segs_eq exp pos = function
  | [] -> pos = Bytes.length exp
  | b :: tl ->
      let len = Buffer.length b in
      pos + len <= Bytes.length exp
      && bytes_eq (Buffer.store b) (Buffer.off b) exp pos len
      && segs_eq exp (pos + len) tl

let now_v c = Int64.to_int (Engine.now c.w.engine)

let push_one c =
  let seq = c.next in
  let slot = seq mod Array.length c.expect in
  let exp = c.expect.(slot) in
  if Bytes.length exp >= 8 then Bytes.set_int64_le exp 0 (Int64.of_int seq);
  Trace.set_req seq;
  Trace.enter Spans.sga;
  let r = Demi.sga_alloc c.w.client (Bytes.unsafe_to_string exp) in
  Trace.leave ();
  match r with
  | Error _ -> c.broken <- Some "sga_alloc failed"
  | Ok sga -> (
      c.sent.(slot) <- sga;
      c.born.(slot) <- now_v c;
      Trace.enter Spans.push;
      let r = Demi.push c.w.client c.w.qd sga in
      Trace.leave ();
      match r with
      | Ok tok ->
          c.ptok.(slot) <- tok;
          c.next <- seq + 1
      | Error _ -> c.broken <- Some "push failed")

(* Redeem finished pushes; their payload buffers go back to the
   manager. *)
let reap_pushes c =
  for slot = 0 to Array.length c.ptok - 1 do
    let tok = c.ptok.(slot) in
    if tok >= 0 then begin
      Trace.enter Spans.wait;
      let r = Demi.try_wait c.w.client tok in
      Trace.leave ();
      match r with
      | None -> ()
      | Some Types.Pushed ->
          c.ptok.(slot) <- -1;
          Demi.sga_free c.w.client c.sent.(slot)
      | Some _ -> c.broken <- Some "push completed with an error"
    end
  done

let complete c reply =
  let seq = c.fin in
  let slot = seq mod Array.length c.expect in
  Trace.enter Spans.verify;
  if not (segs_eq c.expect.(slot) 0 (Sga.segments reply)) then c.bad <- c.bad + 1;
  Trace.leave ();
  Demi.sga_free c.w.client reply;
  if seq >= c.timed_from then begin
    let k = seq - c.timed_from in
    c.lat.(k) <- now_v c - c.born.(slot);
    if (k + 1) mod c.cfg.batch = 0 then begin
      c.stamps.(c.nstamps) <- Trace.now ();
      c.nstamps <- c.nstamps + 1
    end
  end;
  c.fin <- seq + 1

let step c =
  if !Trace.on then begin
    let p = Engine.pending c.w.engine in
    c.pend_n <- c.pend_n + 1;
    c.pend_sum <- c.pend_sum + p;
    if p > c.pend_hwm then c.pend_hwm <- p
  end;
  Trace.enter Spans.step;
  let ok = Engine.step c.w.engine in
  Trace.leave ();
  c.steps <- c.steps + 1;
  if not ok then c.broken <- Some "event queue ran dry with ops in flight"

(* Drive until [upto] replies are verified and every push is redeemed. *)
let run c ~upto =
  let busy () = Array.exists (fun t -> t >= 0) c.ptok in
  while Option.is_none c.broken && (c.fin < upto || busy ()) do
    while Option.is_none c.broken && c.next < upto && c.next - c.fin < Array.length c.expect do
      push_one c
    done;
    if c.pop < 0 && c.fin < upto then begin
      Trace.enter Spans.pop;
      let r = Demi.pop c.w.client c.w.qd in
      Trace.leave ();
      match r with
      | Ok tok -> c.pop <- tok
      | Error _ -> c.broken <- Some "pop failed"
    end;
    reap_pushes c;
    Trace.set_req c.fin;
    if c.pop >= 0 then begin
      Trace.enter Spans.wait;
      let r = Demi.try_wait c.w.client c.pop in
      Trace.leave ();
      match r with
      | Some (Types.Popped reply) ->
          c.pop <- -1;
          complete c reply
      | Some _ -> c.broken <- Some "pop completed with an error"
      | None -> step c
    end
    else if busy () then step c
  done;
  Trace.set_req (-1)

let round cfg ~seed =
  let seed = Int64.of_int seed in
  let t0 = Trace.now () in
  Trace.enter Spans.setup;
  Trace.enter Spans.world;
  let parts = build ~seed in
  Trace.leave ();
  let t_world = Trace.now () in
  Trace.enter Spans.connect;
  let w = connect parts in
  Trace.leave ();
  let t_conn = Trace.now () in
  let c = client w cfg ~seed in
  Trace.enter Spans.warmup;
  run c ~upto:cfg.warmup;
  Trace.leave ();
  Trace.leave ();
  let t_setup = Trace.now () in
  let s0 = Snap.take () in
  let cpu0 = Engine.consumed w.engine in
  let steps0 = c.steps in
  c.timed_from <- cfg.warmup;
  let v0 = Int64.to_int (Engine.now w.engine) in
  let w0 = Gc.minor_words () in
  let h0 = Trace.now () in
  Trace.enter Spans.window;
  run c ~upto:(cfg.warmup + cfg.ops);
  Trace.leave ();
  let h1 = Trace.now () in
  let words = Gc.minor_words () -. w0 in
  let v1 = Int64.to_int (Engine.now w.engine) in
  let cpu1 = Engine.consumed w.engine in
  let s1 = Snap.take () in
  let steps = c.steps - steps0 in
  Trace.enter Spans.teardown;
  let closed = Demi.close w.client w.qd in
  Engine.run w.engine;
  Trace.leave ();
  let ops = c.fin - cfg.warmup in
  let errors =
    List.concat
      [
        (match c.broken with Some e -> [ e ] | None -> []);
        (if c.bad > 0 then [ Printf.sprintf "%d echo replies differ from the payload sent" c.bad ]
         else []);
        (match closed with Ok () -> [] | Error _ -> [ "close failed" ]);
        (let n = Demi.outstanding_tokens w.client in
         if n = 0 then [] else [ Printf.sprintf "%d client tokens outstanding at the end" n ]);
        Layers.errors s0 s1;
      ]
  in
  let lat = Array.map float_of_int (Array.sub c.lat 0 ops) in
  Array.sort Float.compare lat;
  let vdur = float_of_int (max 1 (v1 - v0)) in
  let rate = float_of_int ops /. vdur *. 1e9 in
  let in_slo = Array.fold_left (fun a l -> if l <= Round.slo_ns then a + 1 else a) 0 lat in
  let batches =
    List.init (max 0 (c.nstamps - 1)) (fun i ->
        float_of_int (c.stamps.(i + 1) - c.stamps.(i)) /. float_of_int cfg.batch)
  in
  let batches =
    (* the first batch starts at the window's open *)
    if c.nstamps > 0 then
      (float_of_int (c.stamps.(0) - h0) /. float_of_int cfg.batch) :: batches
    else batches
  in
  let det =
    [
      ("vlat_p50_ns", Round.quantile lat 0.5);
      ("vlat_p999_ns", Round.quantile lat 0.999);
      ("vlat_samples", float_of_int ops);
      ("vgoodput_kops", rate /. 1e3);
      ("vgoodput_mib_s", rate *. float_of_int cfg.size /. 1048576.0);
      ("vcpu_ns_per_op", Int64.to_float (Int64.sub cpu1 cpu0) /. float_of_int (max 1 ops));
      ("vslo_kops", float_of_int in_slo /. vdur *. 1e9 /. 1e3);
      ("host_words_per_op", words /. float_of_int (max 1 ops));
      ("sim.events_per_op", Round.ratio steps ops);
      ("shard.ops.max_over_mean", 1.0);
      ("shard.vcpu.max_over_mean", 1.0);
    ]
    @ Layers.counts ~ops s0 s1
  in
  let det =
    if !Trace.on then
      det
      @ [
          ("sim.pending.hwm", float_of_int c.pend_hwm);
          ("sim.pending.mean", Round.ratio c.pend_sum c.pend_n);
        ]
    else det
  in
  ( {
      Round.ops;
      attempted = cfg.ops;
      failed = cfg.ops - ops + c.bad;
      setup_ns = t_setup - t0;
      batches;
      window_ns = h1 - h0;
      det;
      errors;
      digest = digest c;
      hist = None;
    },
    [
      ("setup.world_s", t_world - t0);
      ("setup.connect_s", t_conn - t_world);
      ("setup.preload_s", 0);
      ("setup.warmup_s", t_setup - t_conn);
    ] )
