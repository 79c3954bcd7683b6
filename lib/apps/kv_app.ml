module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Prog = Dk_device.Prog
module Event_loop = Dk_sched.Event_loop
module Posix = Dk_kernel.Posix
module Framing = Dk_net.Framing
module Setup = Sim_setup

let port = 6379
let read_chunk = 16384

(* ---- server on POSIX sockets ----

   Requests arrive on a byte stream, so each connection runs a framing
   decoder; the event loop blocks in epoll. *)

module Sockets = struct
  type conn = {
    fd : Posix.fd;
    decoder : Framing.decoder;
    mutable outbuf : string; (* responses not yet accepted by write() ... *)
    mutable sent : int; (* ... from this cursor on *)
  }

  type t = {
    posix : Posix.t;
    cost : Cost.t;
    engine : Engine.t;
    kv : Kv.t;
    lsock : Posix.fd;
    epfd : Posix.fd;
    conns : conn Dk_util.Itbl.t;
    mutable served : int;
  }

  let app_work srv = Engine.consume srv.engine srv.cost.Cost.app_request

  let unsent c = String.length c.outbuf - c.sent

  (* Try to flush a connection's pending output; keep `Out interest only
     while bytes remain (otherwise a level-triggered epoll would spin on
     the always-writable socket). *)
  let flush srv c =
    if unsent c > 0 then begin
      (match Posix.write srv.posix c.fd ~off:c.sent c.outbuf with
      | Ok n -> c.sent <- c.sent + n
      | Error `Again -> ()
      | Error _ ->
          c.outbuf <- "";
          c.sent <- 0);
      let interest = if unsent c > 0 then [ `In; `Out ] else [ `In ] in
      ignore (Posix.epoll_add srv.posix srv.epfd c.fd interest)
    end

  let drop srv c =
    Posix.epoll_del srv.posix srv.epfd c.fd;
    Posix.close srv.posix c.fd;
    Dk_util.Itbl.remove srv.conns c.fd

  (* Serve every complete request; their responses, newest first. *)
  let rec serve srv c acc =
    match Framing.next c.decoder with
    | None -> acc
    | Some segments -> (
        app_work srv;
        match Proto.request_of_segments segments with
        | Some req ->
            let resp = Kv.apply srv.kv req in
            srv.served <- srv.served + 1;
            serve srv c (Framing.encode (Proto.response_segments resp) :: acc)
        | None -> serve srv c acc)

  let process_messages srv c =
    let responses = serve srv c [] in
    (* A request stream that cannot be decoded is dropped. *)
    if Framing.corrupt c.decoder then drop srv c
    else begin
      (match responses with
      | [] -> ()
      | _ ->
          (* The unsent tail and this batch's responses, copied once. *)
          let tail = String.sub c.outbuf c.sent (unsent c) in
          c.outbuf <- String.concat "" (tail :: List.rev responses);
          c.sent <- 0);
      flush srv c
    end

  (* Each read goes straight into the decoder's backlog. *)
  let handle_readable srv c =
    let rec drain () =
      match Framing.fill c.decoder read_chunk (Posix.read srv.posix) c.fd with
      | Ok 0 -> drop srv c (* EOF *)
      | Ok _ -> drain ()
      | Error `Again -> process_messages srv c
      | Error _ ->
          Posix.epoll_del srv.posix srv.epfd c.fd;
          Dk_util.Itbl.remove srv.conns c.fd
    in
    drain ()

  let handle_accept srv =
    let rec loop () =
      match Posix.accept srv.posix srv.lsock with
      | Ok fd ->
          let c = { fd; decoder = Framing.create (); outbuf = ""; sent = 0 } in
          Dk_util.Itbl.replace srv.conns fd c;
          ignore (Posix.epoll_add srv.posix srv.epfd fd [ `In ]);
          loop ()
      | Error _ -> ()
    in
    loop ()

  let rec event_loop srv =
    Posix.epoll_wait_block srv.posix srv.epfd ~max:64 (fun events ->
        List.iter
          (fun (fd, ev) ->
            if fd = srv.lsock then handle_accept srv
            else
              match (Dk_util.Itbl.find_opt srv.conns fd, ev) with
              | Some c, `In -> handle_readable srv c
              | Some c, `Out -> flush srv c
              | None, _ -> ())
          events;
        event_loop srv)

  let start ~posix ~cost ~engine ~port ~kv =
    let lsock = Posix.socket posix in
    match Posix.listen posix lsock ~port with
    | Error _ -> Error `Not_supported
    | Ok () ->
        let epfd = Posix.epoll_create posix in
        ignore (Posix.epoll_add posix epfd lsock [ `In ]);
        let conns = Dk_util.Itbl.create 16 in
        let srv = { posix; cost; engine; kv; lsock; epfd; conns; served = 0 } in
        event_loop srv;
        Ok srv
end

(* ---- server on Demikernel queues ---- *)

type queues = {
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

type server = Queues of queues | Sockets of Sockets.t

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
let attach srv reply qd =
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
  Event_loop.on_accept srv.loop lqd (attach srv answer);
  Ok (Queues srv)

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

let start_udp_offload_server ~demi ~port ~kv ?obs_prefix ?capacity
    ?(max_value = 4096) ?(populate = false) () =
  let ( let* ) = Result.bind in
  let* qd = Demi.socket demi `Udp in
  let* () = Demi.bind demi qd ~port in
  let offloaded =
    match Demi.offload_udp_get demi qd ?obs_prefix ?capacity ~max_value () with
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
  attach srv answer_udp qd;
  Ok (Queues srv)

let server_offloaded = function
  | Queues srv -> srv.offloaded
  | Sockets _ -> false

let set_udp_peer srv peer =
  match srv with
  | Queues { udp_qd = Some qd; demi; _ } -> Demi.connect demi qd ~dst:peer
  | Queues _ | Sockets _ -> Ok ()

let requests_served = function
  | Queues srv -> srv.served
  | Sockets srv -> srv.Sockets.served

let serve (type os) (w : os Setup.world) =
  let on_queues demi =
    start_tcp_server ~demi ~port ~kv:(Kv.create (Demi.manager demi))
  in
  match w.os with
  | Setup.Demikernel -> on_queues w.server
  | Setup.Fallback -> on_queues w.server
  | Setup.Kernel ->
      let kv = Kv.create (Dk_mem.Manager.create ()) in
      Sockets.start ~posix:w.server ~cost:w.cost ~engine:w.engine ~port ~kv
      |> Result.map (fun srv -> Sockets srv)
  | Setup.Mtcp -> invalid_arg "Kv_app.serve: no kv server on mTCP"

(* ---- client ---- *)

type client_stats = {
  ops : int;
  hits : int;
  misses : int;
  latency : Dk_sim.Histogram.t;
  elapsed_ns : int64;
}

(* One request and its reply over Demikernel queues: [Ok None] for a
   reply that does not decode. *)
let queue_exchange demi qd req =
  match Demi.blocking_push demi qd (Proto.request_sga req) with
  | Types.Pushed -> (
      match Demi.blocking_pop demi qd with
      | Types.Popped resp ->
          let r = Proto.response_of_sga resp in
          Dk_mem.Sga.free resp;
          Ok r
      | Types.Failed e -> Error e
      | Types.Pushed | Types.Accepted _ -> Error `Not_supported)
  | Types.Failed e -> Error e
  | Types.Popped _ | Types.Accepted _ -> Error `Not_supported

(* The same over a POSIX socket: write the framed request from a
   cursor, then block in epoll until the reply decodes. *)
let socket_exchange ~posix ~engine ~epfd ~fd ~decoder req =
  let payload = Framing.encode (Proto.request_segments req) in
  let rec write_all off =
    if off >= String.length payload then Ok ()
    else
      match Posix.write posix fd ~off payload with
      | Ok n -> write_all (off + n)
      | Error `Again ->
          if Engine.step engine then write_all off else Error `Deadlock
      | Error _ -> Error `Queue_closed
  in
  let rec await () =
    match Framing.next decoder with
    | Some segments -> Ok (Proto.response_of_segments segments)
    | None when Framing.corrupt decoder ->
        (* A reply stream that cannot be decoded: drop the connection. *)
        Posix.close posix fd;
        Error `Conn_aborted
    | None -> (
        match Framing.fill decoder read_chunk (Posix.read posix) fd with
        | Ok 0 -> Error `Queue_closed
        | Ok _ -> await ()
        | Error `Again ->
            let woke = ref false in
            Posix.epoll_wait_block posix epfd ~max:4 (fun _ -> woke := true);
            if Engine.run_until engine (fun () -> !woke) then await ()
            else Error `Deadlock
        | Error _ -> Error `Queue_closed)
  in
  Result.bind (write_all 0) await

(* Preload every key with one SET pass, then run [ops] operations
   closed-loop; stop at the first failed exchange. *)
let run_client ~engine ~exchange ~ops ~keys ~value_size ~read_fraction =
  let ( let* ) = Result.bind in
  let wl = Workload.create ~seed:11L (Workload.Zipf { n = keys; theta = 0.99 }) in
  let set key = Proto.Set (key, Workload.value wl ~size:value_size) in
  let rec preload i =
    if i >= keys then Ok ()
    else
      let* _ = exchange (set (Workload.key_name i)) in
      preload (i + 1)
  in
  let latency = Dk_sim.Histogram.create () in
  let rec go i hits misses =
    if i >= ops then Ok (hits, misses)
    else
      let key = Workload.key_name (Workload.next_key wl) in
      let req =
        if Workload.is_get wl ~read_fraction then Proto.Get key else set key
      in
      let t0 = Engine.now engine in
      let* resp = exchange req in
      Dk_sim.Histogram.record latency (Int64.sub (Engine.now engine) t0);
      match resp with
      | Some (Proto.Value _) -> go (i + 1) (hits + 1) misses
      | Some Proto.Not_found -> go (i + 1) hits (misses + 1)
      | Some (Proto.Stored | Proto.Deleted) | None -> go (i + 1) hits misses
  in
  let* () = preload 0 in
  let start = Engine.now engine in
  let* hits, misses = go 0 0 0 in
  let elapsed_ns = Int64.sub (Engine.now engine) start in
  Ok { ops; hits; misses; latency; elapsed_ns }

let run (type os) (w : os Setup.world) ~ops ~keys ~value_size ~read_fraction
    () =
  let dst = Setup.endpoint w.b port and engine = w.engine in
  let run_client exchange =
    run_client ~engine ~exchange ~ops ~keys ~value_size ~read_fraction
  in
  let on_queues demi =
    let ( let* ) = Result.bind in
    let* qd = Demi.socket demi `Tcp in
    let* () = Demi.connect demi qd ~dst in
    run_client (queue_exchange demi qd)
  in
  match w.os with
  | Setup.Demikernel -> on_queues w.client
  | Setup.Fallback -> on_queues w.client
  | Setup.Kernel ->
      let posix = w.client in
      let fd = Posix.socket posix in
      if
        Result.is_error (Posix.connect posix fd ~dst)
        || not (Engine.run_until engine (fun () -> Posix.connected posix fd))
      then Error `Refused
      else
        let epfd = Posix.epoll_create posix in
        ignore (Posix.epoll_add posix epfd fd [ `In ]);
        let decoder = Framing.create () in
        run_client (socket_exchange ~posix ~engine ~epfd ~fd ~decoder)
  | Setup.Mtcp -> invalid_arg "Kv_app.run: no kv client on mTCP"
