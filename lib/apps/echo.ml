module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Posix = Dk_kernel.Posix
module Mtcp = Dk_kernel.Mtcp
module Engine = Dk_sim.Engine
module Event_loop = Dk_sched.Event_loop
module Setup = Sim_setup

let port = 7

(* Up to [rounds] round trips, stopping at the first error: the
   latency of each completed round, and that error. [trip record] makes
   one round trip and calls [record t0] once its reply is complete. *)
let timed engine ~rounds trip =
  let hist = Dk_sim.Histogram.create () in
  let record t0 =
    Dk_sim.Histogram.record hist (Int64.sub (Engine.now engine) t0)
  in
  let rec go i =
    if i >= rounds then None
    else match trip record with None -> go (i + 1) | err -> err
  in
  (hist, go 0)

let failed e = (Dk_sim.Histogram.create (), Some e)

(* ---- Demikernel ---- *)

let start_demi_server ~demi ~port =
  let ( let* ) = Result.bind in
  let* lqd = Demi.socket demi `Tcp in
  let* () = Demi.bind demi lqd ~port in
  let* () = Demi.listen demi lqd in
  let loop = Event_loop.create demi in
  Event_loop.on_accept loop lqd (fun qd ->
      (* best-effort teardown: the peer is already gone *)
      Event_loop.on_close loop qd (fun _ ->
          match Demi.close demi qd with Ok () | Error _ -> ());
      Event_loop.on_message loop qd (Event_loop.send loop qd));
  Ok ()

let demi_rtt ~demi ~dst ~size ~rounds =
  let engine = Demi.engine demi in
  let payload = String.make size 'e' in
  let trip qd record =
    match Demi.sga_alloc demi payload with
    | Error e -> Some e
    | Ok sga -> (
        let t0 = Engine.now engine in
        match Demi.blocking_push demi qd sga with
        | Types.Pushed -> (
            match Demi.blocking_pop demi qd with
            | Types.Popped reply ->
                record t0;
                Demi.sga_free demi reply;
                Demi.sga_free demi sga;
                None
            | Types.Failed e -> Some e
            | Types.Pushed | Types.Accepted _ -> Some `Not_supported)
        | Types.Failed e -> Some e
        | Types.Popped _ | Types.Accepted _ -> Some `Not_supported)
  in
  match Demi.socket demi `Tcp with
  | Error e -> failed e
  | Ok qd -> (
      match Demi.connect demi qd ~dst with
      | Error e -> failed e
      | Ok () ->
          let r = timed engine ~rounds (trip qd) in
          (match Demi.close demi qd with Ok () | Error _ -> ());
          r)

(* ---- POSIX ---- *)

(* Echo raw bytes back. What the send ring does not take waits as the
   connection's unsent tail, written on `Out; the connection keeps
   being read meanwhile. *)
let start_posix_server ~posix ~port =
  let lsock = Posix.socket posix in
  match Posix.listen posix lsock ~port with
  | Error _ -> Error `Not_supported
  | Ok () ->
      let epfd = Posix.epoll_create posix in
      ignore (Posix.epoll_add posix epfd lsock [ `In ]);
      let buf = Bytes.create 65536 in
      let tails = Dk_util.Itbl.create 4 in
      (* Watch `Out only while a tail is left: a level-triggered epoll
         would spin on the writable socket. *)
      let send fd out =
        let n =
          match Posix.write posix fd out with
          | Ok n -> n
          | Error `Again -> 0
          | Error _ -> String.length out
        in
        let had_tail = Dk_util.Itbl.mem tails fd in
        let left = String.length out - n in
        if left > 0 then begin
          Dk_util.Itbl.replace tails fd (String.sub out n left);
          if not had_tail then
            ignore (Posix.epoll_add posix epfd fd [ `In; `Out ])
        end
        else if had_tail then begin
          Dk_util.Itbl.remove tails fd;
          ignore (Posix.epoll_add posix epfd fd [ `In ])
        end
      in
      let rec drain fd =
        match Posix.read posix fd buf 0 (Bytes.length buf) with
        | Ok 0 ->
            Dk_util.Itbl.remove tails fd;
            Posix.epoll_del posix epfd fd;
            Posix.close posix fd
        | Ok n ->
            let data = Bytes.sub_string buf 0 n in
            send fd
              (match Dk_util.Itbl.find_opt tails fd with
              | None -> data
              | Some tail -> tail ^ data);
            drain fd
        | Error _ -> ()
      in
      let rec loop () =
        Posix.epoll_wait_block posix epfd ~max:16 (fun events ->
            List.iter
              (fun (fd, ev) ->
                if fd = lsock then begin
                  match Posix.accept posix lsock with
                  | Ok c -> ignore (Posix.epoll_add posix epfd c [ `In ])
                  | Error _ -> ()
                end
                else
                  match (ev, Dk_util.Itbl.find_opt tails fd) with
                  | `In, _ -> drain fd
                  | `Out, Some tail -> send fd tail
                  | `Out, None -> ())
              events;
            loop ())
      in
      loop ();
      Ok ()

let posix_rtt ~posix ~engine ~dst ~size ~rounds =
  let fd = Posix.socket posix in
  if
    Result.is_error (Posix.connect posix fd ~dst)
    || not (Engine.run_until engine (fun () -> Posix.connected posix fd))
  then failed `Refused
  else
    let epfd = Posix.epoll_create posix in
    ignore (Posix.epoll_add posix epfd fd [ `In ]);
    let payload = String.make size 'p' in
    let buf = Bytes.create (max size 1) in
    let rec write_all off =
      if off >= size then None
      else
        match Posix.write posix fd ~off payload with
        | Ok n -> write_all (off + n)
        | Error `Again ->
            if Engine.step engine then write_all off else Some `Deadlock
        | Error _ -> Some `Queue_closed
    in
    let rec await received =
      if received >= size then None
      else
        match Posix.read posix fd buf 0 size with
        | Ok 0 -> Some `Queue_closed
        | Ok n -> await (received + n)
        | Error `Again ->
            let woke = ref false in
            Posix.epoll_wait_block posix epfd ~max:4 (fun _ -> woke := true);
            if Engine.run_until engine (fun () -> !woke) then await received
            else Some `Deadlock
        | Error _ -> Some `Queue_closed
    in
    timed engine ~rounds (fun record ->
        let t0 = Engine.now engine in
        let err = match write_all 0 with None -> await 0 | err -> err in
        if Option.is_none err then record t0;
        err)

(* ---- mTCP ---- *)

let mtcp_rtt ~mtcp ~engine ~dst ~size ~rounds =
  let conn = Mtcp.connect mtcp ~dst in
  let connected = ref false in
  Mtcp.set_on_connect conn (fun () -> connected := true);
  if not (Engine.run_until engine (fun () -> !connected)) then failed `Refused
  else
    let payload = String.make size 'm' in
    timed engine ~rounds (fun record ->
        let t0 = Engine.now engine in
        ignore (Mtcp.send conn payload);
        let received = ref 0 in
        if
          Engine.run_until engine (fun () ->
              let avail = Mtcp.recv_ready conn in
              if avail > 0 then
                received := !received + String.length (Mtcp.recv conn avail);
              !received >= size)
        then (
          record t0;
          None)
        else Some `Deadlock)

(* ---- any world ---- *)

let serve (type os) (w : os Setup.world) =
  match w.os with
  | Setup.Demikernel -> start_demi_server ~demi:w.server ~port
  | Setup.Fallback -> start_demi_server ~demi:w.server ~port
  | Setup.Kernel -> start_posix_server ~posix:w.server ~port
  | Setup.Mtcp ->
      Mtcp.listen w.server ~port ~on_accept:(fun conn ->
          Mtcp.set_on_readable conn (fun () ->
              ignore (Mtcp.send conn (Mtcp.recv conn (Mtcp.recv_ready conn)))))
      |> Result.map_error (fun `In_use -> `Not_supported)

let rtt (type os) (w : os Setup.world) ~size ~rounds =
  let dst = Setup.endpoint w.b port and engine = w.engine in
  match w.os with
  | Setup.Demikernel -> demi_rtt ~demi:w.client ~dst ~size ~rounds
  | Setup.Fallback -> demi_rtt ~demi:w.client ~dst ~size ~rounds
  | Setup.Kernel -> posix_rtt ~posix:w.client ~engine ~dst ~size ~rounds
  | Setup.Mtcp -> mtcp_rtt ~mtcp:w.client ~engine ~dst ~size ~rounds
