module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Prog = Dk_device.Prog
module Event_loop = Dk_sched.Event_loop

type server = {
  demi : Demi.t;
  loop : Event_loop.t;
  kv : Kv.t;
  mutable served : int;
  udp_qd : Types.qd option;
  offloaded : bool;
  populate : bool;
  cpu_pipeline : Prog.pipeline;
      (* payload-level GET pipeline evaluated on the host when the NIC
         is not programmable; [] everywhere else *)
}

let app_work srv =
  Engine.consume (Demi.engine srv.demi) (Demi.cost srv.demi).Cost.app_request

let answer srv qd sga =
  app_work srv;
  (match Proto.request_of_sga sga with
  | Some req ->
      Event_loop.send srv.loop qd (Kv.apply_zero_copy srv.kv req);
      srv.served <- srv.served + 1
  | None -> ());
  Dk_mem.Sga.free sga

(* Answer every message on [qd] with [reply]. A queue whose pop fails
   is closed: best-effort teardown, the peer is already gone. *)
let serve srv reply qd =
  Event_loop.on_close srv.loop qd (fun _ ->
      match Demi.close srv.demi qd with Ok () | Error _ -> ());
  Event_loop.on_message srv.loop qd (reply srv qd)

let start_tcp_server ~demi ~port ~kv =
  let ( let* ) = Result.bind in
  let* lqd = Demi.socket demi `Tcp in
  let* () = Demi.bind demi lqd ~port in
  let* () = Demi.listen demi lqd in
  let srv =
    {
      demi;
      loop = Event_loop.create demi;
      kv;
      served = 0;
      udp_qd = None;
      offloaded = false;
      populate = false;
      cpu_pipeline = [];
    }
  in
  Event_loop.on_accept srv.loop lqd (serve srv answer);
  Ok srv

(* ---- offloaded UDP server (single-datagram codec) ----

   Requests arrive as flat strings under the Proto UDP codec. When the
   NIC is programmable, GET hits never reach this loop — the device
   answers them from its resident table; only misses, SETs and DELs
   land here. Device-table coherence is maintained *before* a mutating
   response is pushed (over the synchronous control queue), so a client
   that has seen a SET acknowledged can never read a stale device
   entry. Without a programmable NIC the same pipeline stages run here
   on the host, priced by their static footprint. *)

let send_flat srv qd s = Event_loop.send srv.loop qd (Dk_mem.Sga.of_strings [ s ])

let answer_udp srv qd sga =
  let payload =
    String.concat "" (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga))
  in
  Dk_mem.Sga.free sga;
  let fallback_hit =
    match srv.cpu_pipeline with
    | [] -> None
    | p -> (
        Engine.consume (Demi.engine srv.demi)
          (Demi.pipeline_cpu_ns srv.demi p (String.length payload));
        match Prog.eval_pipeline ~lookup:(Kv.get_copy srv.kv) p payload with
        | Prog.Responded r -> Some r
        | Prog.Deliver _ | Prog.Dropped -> None)
  in
  match fallback_hit with
  | Some raw ->
      send_flat srv qd raw;
      srv.served <- srv.served + 1
  | None -> (
      app_work srv;
      match Proto.udp_request_of_string payload with
      | None -> ()
      | Some req ->
          let resp = Kv.apply srv.kv req in
          (match (req, resp) with
          | Proto.Set (k, v), Proto.Stored ->
              ignore (Demi.offload_update srv.demi k v : bool)
          | Proto.Del k, _ ->
              ignore (Demi.offload_invalidate srv.demi k : bool)
          | Proto.Get k, Proto.Value v when srv.populate && srv.offloaded -> (
              match Demi.offload_insert srv.demi k v with
              | Ok () | Error `Rejected -> ())
          | _ -> ());
          send_flat srv qd (Proto.udp_response_string resp);
          srv.served <- srv.served + 1)

let start_udp_offload_server ~demi ~port ~kv ?policy ?obs_prefix ?capacity
    ?(max_value = 4096) ?(populate = false) () =
  let ( let* ) = Result.bind in
  let* qd = Demi.socket demi `Udp in
  let* () = Demi.bind demi qd ~port in
  let offloaded =
    match
      Demi.offload_udp_get demi qd ?policy ?obs_prefix ?capacity ~max_value ()
    with
    | Ok () -> true
    | Error _ -> false
  in
  let cpu_pipeline = if offloaded then [] else Demi.get_pipeline ~max_value in
  let srv =
    {
      demi;
      loop = Event_loop.create demi;
      kv;
      served = 0;
      udp_qd = Some qd;
      offloaded;
      populate;
      cpu_pipeline;
    }
  in
  serve srv answer_udp qd;
  Ok srv

let server_offloaded srv = srv.offloaded

let set_udp_peer srv peer =
  match srv.udp_qd with
  | Some qd -> Demi.connect srv.demi qd ~dst:peer
  | None -> Ok ()

let requests_served srv = srv.served

type client_stats = {
  ops : int;
  hits : int;
  misses : int;
  latency : Dk_sim.Histogram.t;
  elapsed_ns : int64;
}

let rpc demi qd sga =
  match Demi.blocking_push demi qd sga with
  | Types.Pushed -> (
      match Demi.blocking_pop demi qd with
      | Types.Popped resp -> Some resp
      | Types.Pushed | Types.Accepted _ | Types.Failed _ -> None)
  | Types.Popped _ | Types.Accepted _ | Types.Failed _ -> None

let run_tcp_client ~demi ~dst ~ops ~keys ~value_size ~read_fraction () =
  let ( let* ) = Result.bind in
  let* qd = Demi.socket demi `Tcp in
  let* () = Demi.connect demi qd ~dst in
  let engine = Demi.engine demi in
  let wl = Workload.create ~seed:11L (Workload.Zipf { n = keys; theta = 0.99 }) in
  let latency = Dk_sim.Histogram.create () in
  let hits = ref 0 and misses = ref 0 in
  (* preload *)
  let preload_failed = ref false in
  for i = 0 to keys - 1 do
    if not !preload_failed then begin
      let req =
        Proto.Set (Workload.key_name i, Workload.value wl ~size:value_size)
      in
      match rpc demi qd (Proto.request_sga req) with
      | Some _ -> ()
      | None -> preload_failed := true
    end
  done;
  if !preload_failed then Error `Queue_closed
  else begin
    let start = Engine.now engine in
    let aborted = ref false in
    for _ = 1 to ops do
      if not !aborted then begin
        let key = Workload.key_name (Workload.next_key wl) in
        let req =
          if Workload.is_get wl ~read_fraction then Proto.Get key
          else Proto.Set (key, Workload.value wl ~size:value_size)
        in
        let t0 = Engine.now engine in
        match rpc demi qd (Proto.request_sga req) with
        | Some resp ->
            Dk_sim.Histogram.record latency (Int64.sub (Engine.now engine) t0);
            (match Proto.response_of_sga resp with
            | Some (Proto.Value _) -> incr hits
            | Some Proto.Not_found -> incr misses
            | Some (Proto.Stored | Proto.Deleted) | None -> ());
            Dk_mem.Sga.free resp
        | None -> aborted := true
      end
    done;
    if !aborted then Error `Queue_closed
    else
      Ok
        {
          ops;
          hits = !hits;
          misses = !misses;
          latency;
          elapsed_ns = Int64.sub (Engine.now engine) start;
        }
  end
