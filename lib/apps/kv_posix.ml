module Posix = Dk_kernel.Posix
module Framing = Dk_net.Framing
module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost

type conn = {
  fd : Posix.fd;
  decoder : Framing.decoder;
  mutable outbuf : string; (* responses not yet accepted by write() ... *)
  mutable sent : int; (* ... from this cursor on *)
}

type server = {
  posix : Posix.t;
  cost : Cost.t;
  engine : Engine.t;
  kv : Kv.t;
  lsock : Posix.fd;
  epfd : Posix.fd;
  conns : conn Dk_util.Itbl.t;
  mutable served : int;
}

let read_chunk = 16384

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
    | Error `Again -> ()
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

let start_server ~posix ~cost ~engine ~port ~kv =
  let lsock = Posix.socket posix in
  match Posix.listen posix lsock ~port with
  | Error e -> Error e
  | Ok () ->
      let epfd = Posix.epoll_create posix in
      (match Posix.epoll_add posix epfd lsock [ `In ] with
      | Ok () -> ()
      | Error _ -> ());
      let srv =
        {
          posix;
          cost;
          engine;
          kv;
          lsock;
          epfd;
          conns = Dk_util.Itbl.create 16;
          served = 0;
        }
      in
      event_loop srv;
      Ok srv

let requests_served srv = srv.served

(* ---- client ---- *)

(* Synchronous-looking RPC: drive the simulation until the reply is
   decoded. *)
let rpc ~posix ~engine ~epfd ~fd ~decoder req =
  let payload = Framing.encode (Proto.request_segments req) in
  (* write from a cursor, handling partial writes and EAGAIN by driving
     the engine *)
  let rec write_all off =
    if off < String.length payload then
      match Posix.write posix fd ~off payload with
      | Ok n -> write_all (off + n)
      | Error `Again -> if Engine.step engine then write_all off else ()
      | Error _ -> ()
  in
  write_all 0;
  let result = ref None in
  let rec await () =
    match Framing.next decoder with
    | Some segments -> result := Proto.response_of_segments segments
    | None when Framing.corrupt decoder ->
        (* A reply stream that cannot be decoded: drop the connection. *)
        Posix.close posix fd
    | None -> (
        match Framing.fill decoder read_chunk (Posix.read posix) fd with
        | Ok 0 -> ()
        | Ok _ -> await ()
        | Error `Again ->
            (* Block in epoll until readable. *)
            let woke = ref false in
            Posix.epoll_wait_block posix epfd ~max:4 (fun _ -> woke := true);
            if Engine.run_until engine (fun () -> !woke) then await ()
        | Error _ -> ())
  in
  await ();
  !result

let run_client ~posix ~engine ~dst ~ops ~keys ~value_size ~read_fraction () =
  let fd = Posix.socket posix in
  match Posix.connect posix fd ~dst with
  | Error e -> Error e
  | Ok () ->
      if not (Engine.run_until engine (fun () -> Posix.connected posix fd))
      then Error `Connection_closed
      else begin
        let epfd = Posix.epoll_create posix in
        (match Posix.epoll_add posix epfd fd [ `In ] with
        | Ok () -> ()
        | Error _ -> ());
        let decoder = Framing.create () in
        let wl =
          Workload.create ~seed:11L (Workload.Zipf { n = keys; theta = 0.99 })
        in
        let latency = Dk_sim.Histogram.create () in
        let hits = ref 0 and misses = ref 0 in
        for i = 0 to keys - 1 do
          let req =
            Proto.Set (Workload.key_name i, Workload.value wl ~size:value_size)
          in
          ignore (rpc ~posix ~engine ~epfd ~fd ~decoder req)
        done;
        let start = Engine.now engine in
        for _ = 1 to ops do
          let key = Workload.key_name (Workload.next_key wl) in
          let req =
            if Workload.is_get wl ~read_fraction then Proto.Get key
            else Proto.Set (key, Workload.value wl ~size:value_size)
          in
          let t0 = Engine.now engine in
          (match rpc ~posix ~engine ~epfd ~fd ~decoder req with
          | Some (Proto.Value _) -> incr hits
          | Some Proto.Not_found -> incr misses
          | Some (Proto.Stored | Proto.Deleted) | None -> ());
          Dk_sim.Histogram.record latency (Int64.sub (Engine.now engine) t0)
        done;
        Ok
          {
            Kv_app.ops;
            hits = !hits;
            misses = !misses;
            latency;
            elapsed_ns = Int64.sub (Engine.now engine) start;
          }
      end
