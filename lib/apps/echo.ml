module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Posix = Dk_kernel.Posix
module Mtcp = Dk_kernel.Mtcp
module Engine = Dk_sim.Engine
module Event_loop = Dk_sched.Event_loop

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
  let hist = Dk_sim.Histogram.create () in
  let payload = String.make size 'e' in
  let rec go qd i =
    if i >= rounds then None
    else
      match Demi.sga_alloc demi payload with
      | Error e -> Some e
      | Ok sga -> (
          let t0 = Engine.now engine in
          match Demi.blocking_push demi qd sga with
          | Types.Pushed -> (
              match Demi.blocking_pop demi qd with
              | Types.Popped reply ->
                  Dk_sim.Histogram.record hist
                    (Int64.sub (Engine.now engine) t0);
                  Demi.sga_free demi reply;
                  Demi.sga_free demi sga;
                  go qd (i + 1)
              | Types.Failed e -> Some e
              | Types.Pushed | Types.Accepted _ -> Some `Not_supported)
          | Types.Failed e -> Some e
          | Types.Popped _ | Types.Accepted _ -> Some `Not_supported)
  in
  let err =
    match Demi.socket demi `Tcp with
    | Error e -> Some e
    | Ok qd -> (
        match Demi.connect demi qd ~dst with
        | Error e -> Some e
        | Ok () ->
            let err = go qd 0 in
            (match Demi.close demi qd with Ok () | Error _ -> ());
            err)
  in
  (hist, err)

(* ---- POSIX ---- *)

let start_posix_server ~posix ~port =
  let lsock = Posix.socket posix in
  match Posix.listen posix lsock ~port with
  | Error e -> Error e
  | Ok () ->
      let epfd = Posix.epoll_create posix in
      (match Posix.epoll_add posix epfd lsock [ `In ] with
      | Ok () -> ()
      | Error _ -> ());
      let buf = Bytes.create 65536 in
      let rec loop () =
        Posix.epoll_wait_block posix epfd ~max:16 (fun events ->
            List.iter
              (fun (fd, _) ->
                if fd = lsock then begin
                  match Posix.accept posix lsock with
                  | Ok c -> ignore (Posix.epoll_add posix epfd c [ `In ])
                  | Error _ -> ()
                end
                else begin
                  (* echo raw bytes back *)
                  let rec drain () =
                    match Posix.read posix fd buf 0 (Bytes.length buf) with
                    | Ok 0 ->
                        Posix.epoll_del posix epfd fd;
                        Posix.close posix fd
                    | Ok n ->
                        ignore (Posix.write posix fd (Bytes.sub_string buf 0 n));
                        drain ()
                    | Error _ -> ()
                  in
                  drain ()
                end)
              events;
            loop ())
      in
      loop ();
      Ok ()

let posix_rtt ~posix ~engine ~dst ~size ~rounds =
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
        let hist = Dk_sim.Histogram.create () in
        let payload = String.make size 'p' in
        let buf = Bytes.create (max size 1) in
        for _ = 1 to rounds do
          let t0 = Engine.now engine in
          let rec write_all off =
            if off < size then
              match Posix.write posix fd ~off payload with
              | Ok n -> write_all (off + n)
              | Error `Again -> if Engine.step engine then write_all off
              | Error _ -> ()
          in
          write_all 0;
          let received = ref 0 in
          let rec await () =
            if !received < size then
              match Posix.read posix fd buf 0 size with
              | Ok 0 -> ()
              | Ok n ->
                  received := !received + n;
                  await ()
              | Error `Again ->
                  let woke = ref false in
                  Posix.epoll_wait_block posix epfd ~max:4 (fun _ ->
                      woke := true);
                  if Engine.run_until engine (fun () -> !woke) then await ()
              | Error _ -> ()
          in
          await ();
          Dk_sim.Histogram.record hist (Int64.sub (Engine.now engine) t0)
        done;
        Ok hist
      end

(* ---- mTCP ---- *)

let start_mtcp_server ~mtcp ~port =
  Mtcp.listen mtcp ~port ~on_accept:(fun conn ->
      Mtcp.set_on_readable conn (fun () ->
          let data = Mtcp.recv conn (Mtcp.recv_ready conn) in
          ignore (Mtcp.send conn data)))

let mtcp_rtt ~mtcp ~engine ~dst ~size ~rounds =
  let conn = Mtcp.connect mtcp ~dst in
  let connected = ref false in
  Mtcp.set_on_connect conn (fun () -> connected := true);
  ignore (Engine.run_until engine (fun () -> !connected));
  let hist = Dk_sim.Histogram.create () in
  let payload = String.make size 'm' in
  for _ = 1 to rounds do
    let t0 = Engine.now engine in
    ignore (Mtcp.send conn payload);
    let received = ref 0 in
    ignore
      (Engine.run_until engine (fun () ->
           let avail = Mtcp.recv_ready conn in
           if avail > 0 then begin
             let got = Mtcp.recv conn avail in
             received := !received + String.length got
           end;
           !received >= size));
    Dk_sim.Histogram.record hist (Int64.sub (Engine.now engine) t0)
  done;
  hist
