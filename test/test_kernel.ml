(* Tests for the simulated legacy kernel: pipes, POSIX sockets, epoll
   (polling and blocking), the VFS, and the mTCP model. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Kpipe = Dk_kernel.Kpipe
module Posix = Dk_kernel.Posix
module Vfs = Dk_kernel.Vfs
module Mtcp = Dk_kernel.Mtcp
module Setup = Dk_apps.Sim_setup

let cost = Cost.default

(* ---------------- Kpipe ---------------- *)

let pipe_stream_semantics () =
  let p = Kpipe.create () in
  ignore (Kpipe.write p "msg1");
  ignore (Kpipe.write p "msg2");
  (* boundaries lost: one read can return both *)
  check_str "merged stream" "msg1msg2" (Kpipe.read p 100)

let pipe_backpressure () =
  let p = Kpipe.create ~capacity:4 () in
  check_int "partial write" 4 (Kpipe.write p "toolong");
  check_int "full" 0 (Kpipe.write p "x");
  check_str "kept" "tool" (Kpipe.read p 10)

let pipe_eof () =
  let p = Kpipe.create () in
  ignore (Kpipe.write p "last");
  Kpipe.close_write p;
  check_bool "not eof yet" false (Kpipe.eof p);
  check_str "drain" "last" (Kpipe.read p 10);
  check_bool "eof" true (Kpipe.eof p)

(* ---------------- Posix sockets ---------------- *)

let posix_connect_accept_read_write () =
  let w = Setup.world Kernel in
  let engine = w.engine in
  let ls = Posix.socket w.server in
  check_bool "listen" true (Posix.listen w.server ls ~port:80 = Ok ());
  let cs = Posix.socket w.client in
  check_bool "connect" true
    (Posix.connect w.client cs ~dst:(Setup.endpoint w.b 80) = Ok ());
  ignore (Engine.run_until engine (fun () -> Posix.connected w.client cs));
  (* accept on the server *)
  ignore (Engine.run_until engine (fun () -> Posix.readable w.server ls));
  let sfd =
    match Posix.accept w.server ls with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "accept"
  in
  (* client -> server *)
  (match Posix.write w.client cs "kernel path" with
  | Ok n -> check_int "wrote all" 11 n
  | Error _ -> Alcotest.fail "write");
  ignore (Engine.run_until engine (fun () -> Posix.readable w.server sfd));
  let buf = Bytes.create 64 in
  (match Posix.read w.server sfd buf 0 64 with
  | Ok n -> check_str "read" "kernel path" (Bytes.sub_string buf 0 n)
  | Error _ -> Alcotest.fail "read");
  (* EAGAIN on empty socket *)
  check_bool "eagain" true (Posix.read w.server sfd buf 0 64 = Error `Again)

let posix_costs_charged () =
  (* the kernel path must charge syscalls and copies *)
  let w = Setup.world Kernel in
  let engine = w.engine in
  let ls = Posix.socket w.server in
  ignore (Posix.listen w.server ls ~port:80);
  let cs = Posix.socket w.client in
  ignore (Posix.connect w.client cs ~dst:(Setup.endpoint w.b 80));
  ignore (Engine.run_until engine (fun () -> Posix.connected w.client cs));
  let before = Posix.stats w.client in
  let payload = String.make 4096 'c' in
  ignore (Posix.write w.client cs payload);
  let after = Posix.stats w.client in
  check_bool "syscall counted" true (after.Posix.syscalls > before.Posix.syscalls);
  check_int "bytes copied" 4096
    (after.Posix.bytes_copied - before.Posix.bytes_copied)

let posix_eof_on_close () =
  let w = Setup.world Kernel in
  let engine = w.engine in
  let ls = Posix.socket w.server in
  ignore (Posix.listen w.server ls ~port:80);
  let cs = Posix.socket w.client in
  ignore (Posix.connect w.client cs ~dst:(Setup.endpoint w.b 80));
  ignore (Engine.run_until engine (fun () -> Posix.readable w.server ls));
  let sfd = Result.get_ok (Posix.accept w.server ls) in
  Posix.close w.client cs;
  ignore (Engine.run_until engine (fun () -> Posix.readable w.server sfd));
  let buf = Bytes.create 8 in
  check_bool "eof" true (Posix.read w.server sfd buf 0 8 = Ok 0)

let posix_pipe_fds () =
  let pa = (Setup.world Kernel).client in
  let r, w = Posix.pipe pa in
  (match Posix.write pa w "through the kernel" with
  | Ok n -> check_int "wrote" 18 n
  | Error _ -> Alcotest.fail "pipe write");
  let buf = Bytes.create 64 in
  (match Posix.read pa r buf 0 64 with
  | Ok n -> check_str "read" "through the kernel" (Bytes.sub_string buf 0 n)
  | Error _ -> Alcotest.fail "pipe read");
  check_bool "empty again" true (Posix.read pa r buf 0 64 = Error `Again);
  Posix.close pa w;
  (* write end closed and drained: EOF *)
  check_bool "eof" true (Posix.read pa r buf 0 64 = Ok 0)

let posix_bad_fds () =
  let w = Setup.world Kernel in
  let buf = Bytes.create 4 in
  check_bool "read bad fd" true (Posix.read w.client 999 buf 0 4 = Error `Bad_fd);
  check_bool "write bad fd" true (Posix.write w.client 999 "x" = Error `Bad_fd);
  check_bool "accept bad fd" true
    (match Posix.accept w.client 999 with Error `Bad_fd -> true | _ -> false);
  let r, _ = Posix.pipe w.client in
  check_bool "write to read end" true
    (Posix.write w.client r "x" = Error `Not_supported)

(* ---------------- epoll ---------------- *)

let epoll_level_triggered () =
  let w = Setup.world Kernel in
  let engine = w.engine in
  let ls = Posix.socket w.server in
  ignore (Posix.listen w.server ls ~port:80);
  let cs = Posix.socket w.client in
  ignore (Posix.connect w.client cs ~dst:(Setup.endpoint w.b 80));
  ignore (Engine.run_until engine (fun () -> Posix.readable w.server ls));
  let sfd = Result.get_ok (Posix.accept w.server ls) in
  let ep = Posix.epoll_create w.server in
  check_bool "add ok" true (Posix.epoll_add w.server ep sfd [ `In ] = Ok ());
  check_int "nothing ready" 0 (List.length (Posix.epoll_wait w.server ep ~max:8));
  ignore (Posix.write w.client cs "wake");
  ignore (Engine.run_until engine (fun () -> Posix.readable w.server sfd));
  (match Posix.epoll_wait w.server ep ~max:8 with
  | [ (fd, `In) ] -> check_int "right fd" sfd fd
  | _ -> Alcotest.fail "expected one ready event");
  (* level triggered: still ready until drained *)
  check_int "still ready" 1 (List.length (Posix.epoll_wait w.server ep ~max:8))

let epoll_blocking_wakeup () =
  let w = Setup.world Kernel in
  let engine = w.engine in
  let ls = Posix.socket w.server in
  ignore (Posix.listen w.server ls ~port:80);
  let ep = Posix.epoll_create w.server in
  ignore (Posix.epoll_add w.server ep ls [ `In ]);
  let woke = ref None in
  Posix.epoll_wait_block w.server ep ~max:8 (fun evs -> woke := Some evs);
  check_bool "blocked" true (!woke = None);
  (* a connection arrives; the waiter must wake *)
  let cs = Posix.socket w.client in
  ignore (Posix.connect w.client cs ~dst:(Setup.endpoint w.b 80));
  ignore (Engine.run_until engine (fun () -> !woke <> None));
  match !woke with
  | Some [ (fd, `In) ] -> check_int "listener ready" ls fd
  | _ -> Alcotest.fail "expected wakeup with listener event"

let epoll_wakeup_costs_context_switch () =
  let w = Setup.world Kernel in
  let engine = w.engine in
  let ls = Posix.socket w.server in
  ignore (Posix.listen w.server ls ~port:80);
  let ep = Posix.epoll_create w.server in
  ignore (Posix.epoll_add w.server ep ls [ `In ]);
  let woke_at = ref None in
  Posix.epoll_wait_block w.server ep ~max:8 (fun _ -> woke_at := Some (Engine.now engine));
  let cs = Posix.socket w.client in
  ignore (Posix.connect w.client cs ~dst:(Setup.endpoint w.b 80));
  ignore (Engine.run_until engine (fun () -> !woke_at <> None));
  (* the wakeup happened strictly after the connect flowed through plus
     a context switch; just assert it's not instantaneous *)
  check_bool "wakeup delayed" true
    (match !woke_at with
    | Some t -> Int64.compare t cost.Cost.context_switch >= 0
    | None -> false)

(* ---------------- VFS ---------------- *)

let vfs_setup () =
  let engine = Engine.create () in
  let block = Dk_device.Block.create ~engine ~cost () in
  let vfs = Vfs.create ~engine ~cost ~block () in
  (engine, vfs)

let vfs_write_read () =
  let engine, vfs = vfs_setup () in
  check_bool "creat" true (Vfs.creat vfs "file" = Ok ());
  let wrote = ref None in
  Vfs.write vfs ~path:"file" ~off:0 "hello vfs" (fun r -> wrote := Some r);
  ignore (Engine.run_until engine (fun () -> !wrote <> None));
  check_bool "write ok" true (!wrote = Some (Ok 9));
  let got = ref None in
  Vfs.read vfs ~path:"file" ~off:0 ~len:100 (fun r -> got := Some r);
  ignore (Engine.run_until engine (fun () -> !got <> None));
  check_bool "read back" true (!got = Some (Ok "hello vfs"))

let vfs_cross_block_write () =
  let engine, vfs = vfs_setup () in
  ignore (Vfs.creat vfs "big");
  let data = String.init 10000 (fun i -> Char.chr (i land 0xff)) in
  let wrote = ref None in
  Vfs.write vfs ~path:"big" ~off:0 data (fun r -> wrote := Some r);
  ignore (Engine.run_until engine (fun () -> !wrote <> None));
  let got = ref None in
  Vfs.read vfs ~path:"big" ~off:1234 ~len:5000 (fun r -> got := Some r);
  ignore (Engine.run_until engine (fun () -> !got <> None));
  check_bool "middle range intact" true
    (!got = Some (Ok (String.sub data 1234 5000)))

let vfs_errors () =
  let engine, vfs = vfs_setup () in
  ignore (Vfs.creat vfs "f");
  check_bool "exists" true (Vfs.creat vfs "f" = Error `Exists);
  let r = ref None in
  Vfs.read vfs ~path:"ghost" ~off:0 ~len:1 (fun x -> r := Some x);
  ignore (Engine.run_until engine (fun () -> !r <> None));
  check_bool "no such file" true (!r = Some (Error `No_such_file));
  check_bool "unlink" true (Vfs.unlink vfs "f" = Ok ());
  check_bool "unlink gone" true (Vfs.unlink vfs "f" = Error `No_such_file)

let vfs_fsync () =
  let engine, vfs = vfs_setup () in
  ignore (Vfs.creat vfs "f");
  let synced = ref false and wrote = ref false in
  Vfs.write vfs ~path:"f" ~off:0 "data" (fun _ -> wrote := true);
  Vfs.fsync vfs ~path:"f" (fun _ -> synced := true);
  check_bool "not synced yet" false !synced;
  ignore (Engine.run_until engine (fun () -> !synced));
  check_bool "write completed first" true !wrote

let vfs_charges_more_than_bypass () =
  (* one 4K VFS write must cost more virtual time than one raw block
     write: syscall + vfs + copy + interrupt vs doorbell only *)
  let engine, vfs = vfs_setup () in
  ignore (Vfs.creat vfs "f");
  let t0 = Engine.now engine in
  let wrote = ref false in
  Vfs.write vfs ~path:"f" ~off:0 (String.make 4096 'x') (fun _ -> wrote := true);
  ignore (Engine.run_until engine (fun () -> !wrote));
  let vfs_ns = Int64.sub (Engine.now engine) t0 in
  (* raw device write *)
  let engine2 = Engine.create () in
  let block2 = Dk_device.Block.create ~engine:engine2 ~cost () in
  let t1 = Engine.now engine2 in
  ignore (Dk_device.Block.submit_write block2 ~wr_id:1 ~lba:0 (String.make 4096 'x'));
  Engine.run engine2;
  let raw_ns = Int64.sub (Engine.now engine2) t1 in
  check_bool "vfs slower than raw" true (Int64.compare vfs_ns raw_ns > 0)

(* ---------------- mTCP ---------------- *)

let mtcp_roundtrip () =
  let w = Setup.world Mtcp in
  check_bool "listen" true (Dk_apps.Echo.serve w = Ok ());
  let hist, _ = Dk_apps.Echo.rtt w ~size:64 ~rounds:10 in
  check_int "ten rounds" 10 (Dk_sim.Histogram.count hist)

let vfs_device_busy () =
  let engine = Engine.create () in
  let block = Dk_device.Block.create ~engine ~cost ~sq_depth:1 () in
  let vfs = Vfs.create ~engine ~cost ~block () in
  ignore (Vfs.creat vfs "f");
  let r1 = ref None and r2 = ref None in
  Vfs.write vfs ~path:"f" ~off:0 "one" (fun r -> r1 := Some r);
  (* second write while the device queue is full *)
  Vfs.write vfs ~path:"f" ~off:4096 "two" (fun r -> r2 := Some r);
  ignore (Engine.run_until engine (fun () -> !r1 <> None && !r2 <> None));
  check_bool "first landed" true (!r1 = Some (Ok 3));
  check_bool "second rejected busy" true (!r2 = Some (Error `Device_busy))

let mtcp_copies_charged () =
  let w = Setup.world Mtcp in
  ignore (Dk_apps.Echo.serve w);
  ignore (Dk_apps.Echo.rtt w ~size:1024 ~rounds:5);
  (* POSIX-style semantics: data crossed the API by copy, twice per rtt *)
  check_bool "copies charged" true (Mtcp.bytes_copied w.client >= 2 * 5 * 1024)

let mtcp_latency_exceeds_batch_delays () =
  (* each direction adds a batch delay: RTT >= 2 batches *)
  let w = Setup.world Mtcp in
  ignore (Dk_apps.Echo.serve w);
  let hist, _ = Dk_apps.Echo.rtt w ~size:64 ~rounds:5 in
  let floor = Int64.mul 2L cost.Cost.mtcp_batch_delay in
  check_bool "rtt over 2 batch delays" true
    (Int64.compare (Dk_sim.Histogram.min hist) floor >= 0)

let mtcp_slow_reader_gets_every_byte () =
  (* The client queues 40 x 64 KiB, more than the 1 MiB app-visible
     ring holds, and the server starts reading 1 ms later. What does
     not fit must wait in TCP, not vanish. *)
  let w = Setup.world Mtcp in
  let engine = w.engine in
  let chunks =
    List.init 40 (fun i ->
        String.init 65536 (fun j -> Char.chr ((i + j) land 0xff)))
  in
  let sent = String.concat "" chunks in
  let got = Buffer.create (String.length sent) in
  let drain conn () =
    let n = Mtcp.recv_ready conn in
    if n > 0 then Buffer.add_string got (Mtcp.recv conn n)
  in
  let accepted = ref None in
  check_bool "listen" true
    (Mtcp.listen w.server ~port:9 ~on_accept:(fun c -> accepted := Some c)
    = Ok ());
  let c = Mtcp.connect w.client ~dst:(Setup.endpoint w.b 9) in
  Mtcp.set_on_connect c (fun () ->
      List.iter (fun s -> ignore (Mtcp.send c s)) chunks;
      ignore
        (Engine.after engine 1_000_000L (fun () ->
             match !accepted with
             | Some s ->
                 Mtcp.set_on_readable s (drain s);
                 drain s ()
             | None -> Alcotest.fail "no connection accepted")));
  ignore
    (Engine.run_until engine (fun () ->
         Buffer.length got >= String.length sent));
  check_int "every byte" (String.length sent) (Buffer.length got);
  check_bool "in order" true (String.equal sent (Buffer.contents got))

let mtcp_flush_stops_on_dead_conn () =
  (* The client queues 40 x 64 KiB and the server never reads, so TCP
     gives the connection up. The batch flush must stop with it: the
     engine runs dry long before 1 s of virtual time. *)
  let w = Setup.world Mtcp in
  check_bool "listen" true
    (Mtcp.listen w.server ~port:9 ~on_accept:(fun _ -> ()) = Ok ());
  let c = Mtcp.connect w.client ~dst:(Setup.endpoint w.b 9) in
  let chunk = String.make 65536 'x' in
  Mtcp.set_on_connect c (fun () ->
      for _ = 1 to 40 do
        ignore (Mtcp.send c chunk)
      done);
  ignore
    (Engine.run_until w.engine (fun () ->
         Int64.compare (Engine.now w.engine) 1_000_000_000L >= 0));
  check_int "nothing pending" 0 (Engine.pending w.engine)

let mtcp_close_with_unsent_bytes () =
  (* The client queues 3 x 64 KiB and closes before the first batch
     flush has handed TCP any of them. The close must wait until TCP
     has taken the last byte, so the server, which reads what arrives
     and closes 1 ms later, gets every byte. Then the flush handle
     stops with the connection, leaving the engine to run dry. *)
  let w = Setup.world Mtcp in
  let engine = w.engine in
  let got = Buffer.create (3 * 65536) in
  check_bool "listen" true
    (Mtcp.listen w.server ~port:9 ~on_accept:(fun s ->
         Mtcp.set_on_readable s (fun () ->
             Buffer.add_string got (Mtcp.recv s (Mtcp.recv_ready s)));
         ignore (Engine.after engine 1_000_000L (fun () -> Mtcp.close s)))
    = Ok ());
  let c = Mtcp.connect w.client ~dst:(Setup.endpoint w.b 9) in
  let chunk = String.make 65536 'u' in
  Mtcp.set_on_connect c (fun () ->
      for _ = 1 to 3 do
        ignore (Mtcp.send c chunk)
      done;
      Mtcp.close c);
  check_bool "ran dry" false
    (Engine.run_until engine (fun () ->
         Int64.compare (Engine.now engine) 10_000_000_000L >= 0));
  check_int "server read every byte" (3 * 65536) (Buffer.length got);
  check_bool "intact" true
    (String.equal (String.make (3 * 65536) 'u') (Buffer.contents got));
  check_int "nothing pending" 0 (Engine.pending engine)

let () =
  Alcotest.run "dk_kernel"
    [
      ( "kpipe",
        [
          Alcotest.test_case "stream semantics" `Quick pipe_stream_semantics;
          Alcotest.test_case "backpressure" `Quick pipe_backpressure;
          Alcotest.test_case "eof" `Quick pipe_eof;
        ] );
      ( "posix",
        [
          Alcotest.test_case "connect/accept/io" `Quick posix_connect_accept_read_write;
          Alcotest.test_case "costs charged" `Quick posix_costs_charged;
          Alcotest.test_case "eof on close" `Quick posix_eof_on_close;
          Alcotest.test_case "pipe fds" `Quick posix_pipe_fds;
          Alcotest.test_case "bad fds" `Quick posix_bad_fds;
        ] );
      ( "epoll",
        [
          Alcotest.test_case "level triggered" `Quick epoll_level_triggered;
          Alcotest.test_case "blocking wakeup" `Quick epoll_blocking_wakeup;
          Alcotest.test_case "wakeup cost" `Quick epoll_wakeup_costs_context_switch;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "write/read" `Quick vfs_write_read;
          Alcotest.test_case "cross-block" `Quick vfs_cross_block_write;
          Alcotest.test_case "errors" `Quick vfs_errors;
          Alcotest.test_case "fsync barrier" `Quick vfs_fsync;
          Alcotest.test_case "device busy" `Quick vfs_device_busy;
          Alcotest.test_case "dearer than bypass" `Quick vfs_charges_more_than_bypass;
        ] );
      ( "mtcp",
        [
          Alcotest.test_case "roundtrip" `Quick mtcp_roundtrip;
          Alcotest.test_case "copies charged" `Quick mtcp_copies_charged;
          Alcotest.test_case "batch latency floor" `Quick mtcp_latency_exceeds_batch_delays;
          Alcotest.test_case "slow reader gets every byte" `Quick
            mtcp_slow_reader_gets_every_byte;
          Alcotest.test_case "flush stops on a dead connection" `Quick
            mtcp_flush_stops_on_dead_conn;
          Alcotest.test_case "close with unsent bytes drains" `Quick
            mtcp_close_with_unsent_bytes;
        ] );
    ]
