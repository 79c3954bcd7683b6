(* Tests for the Demikernel core: tokens, memq, the Figure-3 interface
   over TCP/UDP, composed queues (filter/map/sort/merge/qconnect),
   storage queues with recovery, RDMA queues with libOS buffer
   management and flow control, transparent memory registration, and
   wait semantics. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Sga = Dk_mem.Sga
module Types = Demikernel.Types
module Demi = Demikernel.Demi
module Prog = Dk_device.Prog
module Setup = Dk_apps.Sim_setup

let cost = Cost.default

let solo_demi () =
  let engine = Engine.create () in
  (engine, Demi.create ~engine ~cost ())

let sga_str s = Sga.of_string s

let expect_popped = function
  | Types.Popped sga -> Sga.to_string sga
  | r -> Alcotest.failf "expected Popped, got %a" Types.pp_op_result r

(* ---------------- tokens & wait ---------------- *)

let wait_bad_token () =
  let _, demi = solo_demi () in
  check_bool "bad token" true (Demi.wait demi 9999 = Types.Failed `Bad_qtoken)

let wait_deadlock () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  match Demi.pop demi qd with
  | Error _ -> Alcotest.fail "pop"
  | Ok tok ->
      (* nothing will ever arrive and no events exist *)
      check_bool "deadlock detected" true (Demi.wait demi tok = Types.Failed `Deadlock)

let wait_charges_poll () =
  let engine, demi = solo_demi () in
  let qd = Demi.queue demi in
  ignore (Engine.after engine 1000L (fun () -> ()));
  let tok = Result.get_ok (Demi.pop demi qd) in
  let t0 = Engine.now engine in
  ignore (Demi.wait demi tok);
  (* waited through one event + poll iterations; clock advanced *)
  check_bool "clock advanced" true (Int64.compare (Engine.now engine) t0 > 0)

(* ---------------- memq ---------------- *)

let memq_fifo () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  List.iter
    (fun s ->
      match Demi.blocking_push demi qd (sga_str s) with
      | Types.Pushed -> ()
      | _ -> Alcotest.fail "push")
    [ "a"; "b"; "c" ];
  check_str "first" "a" (expect_popped (Demi.blocking_pop demi qd));
  check_str "second" "b" (expect_popped (Demi.blocking_pop demi qd));
  check_str "third" "c" (expect_popped (Demi.blocking_pop demi qd))

let memq_atomicity () =
  (* a multi-segment sga pops out as one element with boundaries *)
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  let sga = Sga.of_strings [ "seg1"; "seg2"; "seg3" ] in
  ignore (Demi.blocking_push demi qd sga);
  match Demi.blocking_pop demi qd with
  | Types.Popped out ->
      check_int "segments preserved" 3 (Sga.segment_count out);
      check_str "payload" "seg1seg2seg3" (Sga.to_string out)
  | r -> Alcotest.failf "unexpected %a" Types.pp_op_result r

let memq_pop_before_push () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  let tok = Result.get_ok (Demi.pop demi qd) in
  ignore (Demi.blocking_push demi qd (sga_str "late"));
  check_str "completed by later push" "late" (expect_popped (Demi.wait demi tok))

let memq_close_fails_pop () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  let tok = Result.get_ok (Demi.pop demi qd) in
  ignore (Demi.close demi qd);
  check_bool "pop failed on close" true
    (Demi.wait demi tok = Types.Failed `Queue_closed);
  check_bool "qd gone" true (Demi.pop demi qd = Error `Bad_qd)

(* wait wakes exactly one pop per element (§4.4) *)
let memq_exactly_one_wakeup () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  let t1 = Result.get_ok (Demi.pop demi qd) in
  let t2 = Result.get_ok (Demi.pop demi qd) in
  ignore (Demi.blocking_push demi qd (sga_str "only"));
  let done1 = Demi.try_wait demi t1 in
  let done2 = Demi.try_wait demi t2 in
  check_bool "exactly one completed" true
    ((done1 <> None) <> (done2 <> None))

(* ---------------- wait_any / wait_all ---------------- *)

let wait_any_returns_first () =
  let engine, demi = solo_demi () in
  let q1 = Demi.queue demi and q2 = Demi.queue demi in
  let t1 = Result.get_ok (Demi.pop demi q1) in
  let t2 = Result.get_ok (Demi.pop demi q2) in
  ignore
    (Engine.after engine 500L (fun () ->
         ignore (Demi.push demi q2 (sga_str "two"))));
  (match Demi.wait_any demi [ t1; t2 ] with
  | Some (tok, Types.Popped sga) ->
      check_bool "q2's token" true (tok = t2);
      check_str "value" "two" (Sga.to_string sga)
  | _ -> Alcotest.fail "expected completion");
  (* t1 still outstanding *)
  check_bool "t1 pending" true (Demi.try_wait demi t1 = None)

let wait_any_timeout () =
  let _, demi = solo_demi () in
  let q = Demi.queue demi in
  let tok = Result.get_ok (Demi.pop demi q) in
  check_bool "timed out" true (Demi.wait_any ~timeout:1000L demi [ tok ] = None)

let wait_all_collects () =
  let engine, demi = solo_demi () in
  let q1 = Demi.queue demi and q2 = Demi.queue demi in
  let t1 = Result.get_ok (Demi.pop demi q1) in
  let t2 = Result.get_ok (Demi.pop demi q2) in
  ignore
    (Engine.after engine 100L (fun () ->
         ignore (Demi.push demi q1 (sga_str "one"))));
  ignore
    (Engine.after engine 200L (fun () ->
         ignore (Demi.push demi q2 (sga_str "two"))));
  match Demi.wait_all demi [ t1; t2 ] with
  | Some [ (tok1, r1); (tok2, r2) ] ->
      check_bool "order" true (tok1 = t1 && tok2 = t2);
      check_str "r1" "one" (expect_popped r1);
      check_str "r2" "two" (expect_popped r2)
  | _ -> Alcotest.fail "expected both"

let wait_timeout_keeps_token () =
  let engine, demi = solo_demi () in
  let q = Demi.queue demi in
  let tok = Result.get_ok (Demi.pop demi q) in
  check_bool "first wait times out" true
    (Demi.wait_timeout demi tok ~timeout:500L = Types.Failed `Timeout);
  ignore
    (Engine.after engine 10L (fun () ->
         ignore (Demi.push demi q (sga_str "finally"))));
  check_str "second wait succeeds" "finally"
    (expect_popped (Demi.wait demi tok))

(* The four timed waits, each waiting on one token: [Some r] is the
   completion, [None] the timeout. They share one deadline rule. *)
let timed_waits =
  [
    ( "wait_timeout",
      fun demi tok ~timeout ->
        match Demi.wait_timeout demi tok ~timeout with
        | Types.Failed `Timeout -> None
        | r -> Some r );
    ( "wait_any",
      fun demi tok ~timeout ->
        Option.map snd (Demi.wait_any ~timeout demi [ tok ]) );
    ( "wait_all",
      fun demi tok ~timeout ->
        match Demi.wait_all ~timeout demi [ tok ] with
        | Some [ (_, r) ] -> Some r
        | Some _ -> Alcotest.fail "wait_all: one token, one result"
        | None -> None );
    ( "wait_next",
      fun demi tok ~timeout ->
        let ws = Demi.waitset demi in
        Demi.waitset_add demi ws tok;
        Option.map snd (Demi.wait_next ~timeout demi ws) );
  ]

(* A token popped at [t0] whose completion is due at [t0 + due]. *)
let pop_due_at due payload =
  let engine, demi = solo_demi () in
  let q = Demi.queue demi in
  let tok = Result.get_ok (Demi.pop demi q) in
  let t0 = Engine.now engine in
  ignore
    (Engine.after engine due (fun () ->
         ignore (Demi.push demi q (sga_str payload))));
  (engine, demi, tok, t0)

(* Regression: a completion whose event lands exactly on the deadline
   is inside the window — redemption wins the tie, never the timeout —
   even though the poll loop's own CPU charges may have pushed the
   clock past the event before it ran. *)
let wait_timeout_deadline_tie () =
  List.iter
    (fun (name, timed_wait) ->
      let _, demi, tok, _ = pop_due_at 500L "on the wire" in
      match timed_wait demi tok ~timeout:500L with
      | Some r ->
          check_str (name ^ ": tie goes to the completion") "on the wire"
            (expect_popped r)
      | None -> Alcotest.failf "%s: timed out on a tie" name)
    timed_waits

(* One nanosecond late is outside the window: the wait times out with
   the clock at the deadline, without running the late event, and the
   completion stays for a later wait. *)
let wait_timeout_just_late () =
  List.iter
    (fun (name, timed_wait) ->
      let engine, demi, tok, t0 = pop_due_at 501L "late" in
      check_bool (name ^ ": one past the deadline times out") true
        (timed_wait demi tok ~timeout:500L = None);
      check Alcotest.int64 (name ^ ": clock stops at the deadline")
        (Int64.add t0 500L) (Engine.now engine);
      check_str (name ^ ": token survives to a later wait") "late"
        (expect_popped (Demi.wait demi tok)))
    timed_waits

let wait_timeout_bad_token () =
  let engine, demi = solo_demi () in
  let t0 = Engine.now engine in
  check_bool "bad token" true
    (Demi.wait_timeout demi 9999 ~timeout:500L = Types.Failed `Bad_qtoken);
  check Alcotest.int64 "clock did not move" t0 (Engine.now engine)

(* ---------------- TCP queues over two runtimes ---------------- *)

let start_echo demi port =
  match Dk_apps.Echo.start_demi_server ~demi ~port with
  | Ok () -> ()
  | Error e -> Alcotest.failf "echo server: %s" (Types.error_to_string e)

let tcp_queue_echo () =
  let w = Setup.world Demikernel in
  start_echo w.server 7;
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  (match Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "connect: %s" (Types.error_to_string e));
  let sga = Sga.of_strings [ "hello"; " "; "queues" ] in
  check_bool "pushed" true (Demi.blocking_push w.client qd sga = Types.Pushed);
  match Demi.blocking_pop w.client qd with
  | Types.Popped reply ->
      check_str "echoed" "hello queues" (Sga.to_string reply);
      (* framing preserved the segment boundaries end-to-end *)
      check_int "segments" 3 (Sga.segment_count reply)
  | r -> Alcotest.failf "unexpected %a" Types.pp_op_result r

let tcp_queue_large_message () =
  (* One message spanning many MSS-sized segments stays atomic. The
     200,000 B one is larger than the 64 KiB send buffer, so the push
     drains over many ACK-driven partial sends. *)
  let w = Setup.world Demikernel in
  start_echo w.server 7;
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7));
  List.iter
    (fun size ->
      let big = String.init size (fun i -> Char.chr ((i * 7) land 0xff)) in
      check_bool "pushed" true
        (Demi.blocking_push w.client qd (sga_str big) = Types.Pushed);
      match Demi.blocking_pop w.client qd with
      | Types.Popped reply ->
          check_int "length" size (Sga.length reply);
          check_bool "intact" true (String.equal big (Sga.to_string reply))
      | r -> Alcotest.failf "unexpected %a" Types.pp_op_result r)
    [ 20_000; 200_000 ]

let tcp_connect_refused () =
  let w = Setup.world Demikernel in
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  check_bool "refused" true
    (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 99) = Error `Refused)

let tcp_close_propagates () =
  let w = Setup.world Demikernel in
  let server_qd = ref None in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:7);
  ignore (Demi.listen w.server lqd);
  let atok = Result.get_ok (Demi.accept_async w.server lqd) in
  Demi.watch w.server atok (function
    | Types.Accepted qd -> server_qd := Some qd
    | _ -> ());
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7));
  ignore (Engine.run_until w.engine (fun () -> !server_qd <> None));
  (* server pops; client closes; server's pop must fail *)
  let sqd = Option.get !server_qd in
  let ptok = Result.get_ok (Demi.pop w.server sqd) in
  ignore (Demi.close w.client qd);
  let result = Demi.wait w.server ptok in
  check_bool "pop failed after peer close" true
    (match result with Types.Failed _ -> true | _ -> false)

(* A peer whose stream no framing can describe costs only its own
   connection: the event loop returns, that connection's pop fails, and
   the listener keeps serving. Three such streams: a segment count of
   2^35 - 1, a varint that ten 0x80 bytes leave unterminated (no
   non-negative int needs more than nine), and a header that declares
   a 1 GiB segment, past [Framing.max_message], followed by filler. *)
let tcp_bad_framing_aborts_one_conn () =
  let w = Setup.world Demikernel in
  let rejected () =
    let c = (Dk_obs.Metrics.snapshot Dk_obs.Metrics.default).Dk_obs.Metrics.counters in
    Option.value ~default:0 (List.assoc_opt "net.framing.rejected" c)
  in
  let r0 = rejected () in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:7);
  ignore (Demi.listen w.server lqd);
  List.iter
    (fun stream ->
      let raw = Dk_net.Stack.tcp_connect w.a.Setup.stack ~dst:(Setup.endpoint w.b 7) in
      Dk_net.Tcp.set_on_connect raw (fun () -> ignore (Dk_net.Tcp.send raw stream));
      let bad = Result.get_ok (Demi.accept w.server lqd) in
      Engine.run w.engine;
      check_bool "bad conn aborted" true (Demi.blocking_pop w.server bad = Types.Failed `Conn_aborted))
    [
      "\xff\xff\xff\xff\x0f";
      String.make 10 '\x80';
      "\x01\x80\x80\x80\x80\x04" ^ String.make 4000 'f';
    ];
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7));
  let good = Result.get_ok (Demi.accept w.server lqd) in
  ignore (Demi.blocking_push w.client qd (sga_str "hello"));
  ignore (Demi.blocking_push w.server good (sga_str (expect_popped (Demi.blocking_pop w.server good))));
  check_str "healthy conn echoes" "hello" (expect_popped (Demi.blocking_pop w.client qd));
  check_int "one rejection per bad stream" 3 (rejected () - r0)

(* Each popped message has a store of its own. Message 1 is popped and
   kept while 40 messages of odd sizes, pushed back to back, make the
   receiver's framing decoder grow and slide its backlog; message 1's
   bytes stay as they were. Every popped sga then frees cleanly: with
   the sanitizer armed (DK_SANITIZE=1, as under @sanitize) nothing is
   reported, no token dangles and nothing leaks. Run over the bypass
   stack and over the kernel fallback. *)
let popped_message_keeps_its_store () =
  let run client server dst =
    let lqd = Result.get_ok (Demi.socket server `Tcp) in
    ignore (Demi.bind server lqd ~port:9);
    ignore (Demi.listen server lqd);
    let qd = Result.get_ok (Demi.socket client `Tcp) in
    ignore (Demi.connect client qd ~dst);
    let sqd = Result.get_ok (Demi.accept server lqd) in
    let first = [ "first"; ""; String.init 3001 (fun i -> Char.chr (i land 255)) ] in
    ignore (Demi.blocking_push client qd (Sga.of_strings first));
    let kept =
      match Demi.blocking_pop server sqd with
      | Types.Popped sga -> sga
      | r -> Alcotest.failf "message 1: %a" Types.pp_op_result r
    in
    let sizes = List.init 40 (fun i -> 1 + (i * 7919 mod 20_000)) in
    let (), reports =
      Dk_mem.Dk_check.capture (fun () ->
          let toks =
            List.map
              (fun n ->
                Result.get_ok
                  (Demi.push client qd (sga_str (String.make n 'z'))))
              sizes
          in
          List.iter
            (fun n ->
              match Demi.blocking_pop server sqd with
              | Types.Popped sga ->
                  check_int "later message" n (Sga.length sga);
                  Demi.sga_free server sga
              | r -> Alcotest.failf "later message: %a" Types.pp_op_result r)
            sizes;
          List.iter (fun tok -> ignore (Demi.wait client tok)) toks;
          check (Alcotest.list Alcotest.string) "message 1 unchanged" first
            (List.map Dk_mem.Buffer.to_string (Sga.segments kept));
          Demi.sga_free server kept)
    in
    check_int "no sanitizer reports" 0 (List.length reports);
    let (dangling, leaks), _ =
      Dk_mem.Dk_check.capture (fun () -> Demi.check_shutdown server)
    in
    check_int "no dangling tokens" 0 dangling;
    check_int "no leaks" 0 (List.length leaks)
  in
  List.iter
    (fun os ->
      let w = Setup.world os in
      run w.client w.server (Setup.endpoint w.b 9))
    [ Setup.Demikernel; Setup.Fallback ]

let udp_queue_roundtrip () =
  let w = Setup.world Demikernel in
  (* server *)
  let sqd = Result.get_ok (Demi.socket w.server `Udp) in
  ignore (Demi.bind w.server sqd ~port:53);
  ignore (Demi.connect w.server sqd ~dst:(Dk_net.Addr.endpoint w.a.Setup.ip 54));
  let loop = Dk_sched.Event_loop.create w.server in
  Dk_sched.Event_loop.on_message loop sqd (fun sga ->
      Dk_sched.Event_loop.send loop sqd (sga_str ("ack:" ^ Sga.to_string sga)));
  (* client *)
  let cqd = Result.get_ok (Demi.socket w.client `Udp) in
  ignore (Demi.bind w.client cqd ~port:54);
  ignore (Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 53));
  ignore (Demi.blocking_push w.client cqd (sga_str "ping"));
  check_str "reply" "ack:ping" (expect_popped (Demi.blocking_pop w.client cqd))

(* A datagram fits a 16-bit IPv4 total length or is refused whole. *)
let udp_queue_oversized_push () =
  let w = Setup.world Demikernel in
  let qd = Result.get_ok (Demi.socket w.client `Udp) in
  ignore (Demi.bind w.client qd ~port:54);
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 53));
  check_bool "65,507 B pushed" true
    (Demi.blocking_push w.client qd (sga_str (String.make 65_507 'a'))
    = Types.Pushed);
  check_bool "65,508 B refused" true
    (Demi.blocking_push w.client qd (sga_str (String.make 65_508 'b'))
    = Types.Failed `Not_supported)

(* A message longer than [Framing.max_message] would make the
   receiving libOS abort the connection. The push is refused whole
   instead, as an oversized UDP push is, and the connection stays
   usable. Over the bypass stack and the kernel fallback. *)
let oversized_message = lazy (sga_str (String.make (Dk_net.Framing.max_message + 1) 'x'))

let tcp_oversized_push_refused () =
  let run client server dst =
    let lqd = Result.get_ok (Demi.socket server `Tcp) in
    ignore (Demi.bind server lqd ~port:9);
    ignore (Demi.listen server lqd);
    let qd = Result.get_ok (Demi.socket client `Tcp) in
    ignore (Demi.connect client qd ~dst);
    let sqd = Result.get_ok (Demi.accept server lqd) in
    check_bool "max_message + 1 B refused" true
      (Demi.blocking_push client qd (Lazy.force oversized_message)
      = Types.Failed `Not_supported);
    let small = String.make 64 'p' in
    check_bool "64 B pushed" true
      (Demi.blocking_push client qd (sga_str small) = Types.Pushed);
    check_str "64 B round-trips" small
      (expect_popped (Demi.blocking_pop server sqd))
  in
  List.iter
    (fun os ->
      let w = Setup.world os in
      run w.client w.server (Setup.endpoint w.b 9))
    [ Setup.Demikernel; Setup.Fallback ]

let close_listener_fails_pending_accept () =
  let w = Setup.world Demikernel in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:7);
  ignore (Demi.listen w.server lqd);
  let tok = Result.get_ok (Demi.accept_async w.server lqd) in
  ignore (Demi.close w.server lqd);
  check_bool "pending accept failed" true
    (Demi.wait w.server tok = Types.Failed `Queue_closed)

(* ---------------- composed queues ---------------- *)

let filter_cpu_fallback () =
  let _, demi = solo_demi () in
  let base = Demi.queue demi in
  let fq = Result.get_ok (Demi.filter demi base (Prog.Prefix "keep")) in
  check_bool "not offloaded" false (Demi.filter_offloaded demi fq);
  ignore (Demi.blocking_push demi fq (sga_str "keep me"));
  ignore (Demi.blocking_push demi fq (sga_str "drop me"));
  ignore (Demi.blocking_push demi fq (sga_str "keep too"));
  (* pops from the filtered queue see only matching elements *)
  check_str "first" "keep me" (expect_popped (Demi.blocking_pop demi fq));
  check_str "second" "keep too" (expect_popped (Demi.blocking_pop demi fq))

let filter_charges_cpu () =
  let engine, demi = solo_demi () in
  let base = Demi.queue demi in
  let fq = Result.get_ok (Demi.filter demi base (Prog.Prefix "x")) in
  let t0 = Engine.now engine in
  ignore (Demi.blocking_push demi fq (sga_str "xyz"));
  check_bool "cpu time charged" true (Int64.compare (Engine.now engine) t0 > 0)

let map_transforms () =
  let _, demi = solo_demi () in
  let base = Demi.queue demi in
  let mq = Result.get_ok (Demi.map demi base (Prog.Prepend "H:")) in
  ignore (Demi.blocking_push demi mq (sga_str "body"));
  check_str "mapped on push+pop path" "H:H:body"
    (expect_popped (Demi.blocking_pop demi mq))

let map_fn_pop_only () =
  let _, demi = solo_demi () in
  let base = Demi.queue demi in
  ignore (Demi.blocking_push demi base (sga_str "abc"));
  let mq =
    Result.get_ok
      (Demi.map_fn demi base (fun sga ->
           sga_str (String.uppercase_ascii (Sga.to_string sga))))
  in
  check_str "uppercased" "ABC" (expect_popped (Demi.blocking_pop demi mq))

let sort_priority () =
  let _, demi = solo_demi () in
  let base = Demi.queue demi in
  (* priority: shorter strings first *)
  let sq =
    Result.get_ok
      (Demi.sort demi base (fun a b -> Sga.length a < Sga.length b))
  in
  ignore (Demi.blocking_push demi sq (sga_str "mediums"));
  ignore (Demi.blocking_push demi sq (sga_str "tiny"));
  ignore (Demi.blocking_push demi sq (sga_str "the longest one"));
  check_str "highest priority first" "tiny"
    (expect_popped (Demi.blocking_pop demi sq));
  check_str "then medium" "mediums" (expect_popped (Demi.blocking_pop demi sq));
  check_str "then longest" "the longest one"
    (expect_popped (Demi.blocking_pop demi sq))

let merge_pops_both () =
  let _, demi = solo_demi () in
  let q1 = Demi.queue demi and q2 = Demi.queue demi in
  let m = Result.get_ok (Demi.merge demi q1 q2) in
  ignore (Demi.blocking_push demi q1 (sga_str "from1"));
  ignore (Demi.blocking_push demi q2 (sga_str "from2"));
  let a = expect_popped (Demi.blocking_pop demi m) in
  let b = expect_popped (Demi.blocking_pop demi m) in
  check_bool "both arrived" true
    (List.sort compare [ a; b ] = [ "from1"; "from2" ])

let merge_push_duplicates () =
  let _, demi = solo_demi () in
  let q1 = Demi.queue demi and q2 = Demi.queue demi in
  let m = Result.get_ok (Demi.merge demi q1 q2) in
  ignore (Demi.blocking_push demi m (sga_str "dup"));
  (* both parents got it... but the merged queue's pump is also popping
     the parents. The element lands back in the merged queue twice. *)
  check_str "copy one" "dup" (expect_popped (Demi.blocking_pop demi m));
  check_str "copy two" "dup" (expect_popped (Demi.blocking_pop demi m))

let qconnect_splices () =
  let _, demi = solo_demi () in
  let src = Demi.queue demi and dst = Demi.queue demi in
  ignore (Demi.qconnect demi ~src ~dst);
  ignore (Demi.blocking_push demi src (sga_str "spliced"));
  check_str "arrived at dst" "spliced" (expect_popped (Demi.blocking_pop demi dst))

let steer_partitions_completely () =
  let _, demi = solo_demi () in
  let base = Demi.queue demi in
  let ways = 4 in
  let outs =
    Result.get_ok (Demi.steer demi base ~ways ~hash_off:0 ~hash_len:8)
  in
  check_int "four ways" ways (List.length outs);
  (* push 40 keyed messages into the parent *)
  for i = 0 to 39 do
    ignore
      (Demi.blocking_push demi base (sga_str (Printf.sprintf "key-%04d!" i)))
  done;
  (* every message lands on exactly one output *)
  let counts =
    List.map
      (fun qd ->
        let n = ref 0 in
        let rec drain () =
          match Demi.pop demi qd with
          | Error _ -> ()
          | Ok tok -> (
              match Demi.wait_timeout demi tok ~timeout:1000L with
              | Types.Popped _ ->
                  incr n;
                  drain ()
              | _ -> ())
        in
        drain ();
        !n)
      outs
  in
  check_int "all delivered exactly once" 40 (List.fold_left ( + ) 0 counts);
  check_bool "spread across ways" true
    (List.length (List.filter (fun c -> c > 0) counts) >= 2)

let steer_is_deterministic_per_key () =
  (* equal keys always land on the same way: per-key FIFO *)
  let _, demi = solo_demi () in
  let base = Demi.queue demi in
  let outs = Result.get_ok (Demi.steer demi base ~ways:3 ~hash_off:0 ~hash_len:5) in
  for i = 1 to 6 do
    ignore
      (Demi.blocking_push demi base (sga_str (Printf.sprintf "kAAAA-%d" i)))
  done;
  (* all six share the 5-byte prefix hash: one way got them all, in order *)
  let found =
    List.filter_map
      (fun qd ->
        let collected = ref [] in
        let rec drain () =
          match Demi.pop demi qd with
          | Error _ -> ()
          | Ok tok -> (
              match Demi.wait_timeout demi tok ~timeout:1000L with
              | Types.Popped sga ->
                  collected := Sga.to_string sga :: !collected;
                  drain ()
              | _ -> ())
        in
        drain ();
        if !collected = [] then None else Some (List.rev !collected))
      outs
  in
  match found with
  | [ msgs ] ->
      check_int "all on one way" 6 (List.length msgs);
      check_str "fifo within way" "kAAAA-1" (List.hd msgs)
  | _ -> Alcotest.fail "keys split across ways"

let merge_stays_open_until_both_close () =
  let _, demi = solo_demi () in
  let q1 = Demi.queue demi and q2 = Demi.queue demi in
  let m = Result.get_ok (Demi.merge demi q1 q2) in
  ignore (Demi.close demi q1);
  (* the other parent still feeds the merged queue *)
  ignore (Demi.blocking_push demi q2 (sga_str "survivor"));
  check_str "still flowing" "survivor" (expect_popped (Demi.blocking_pop demi m));
  ignore (Demi.close demi q2);
  let tok = Result.get_ok (Demi.pop demi m) in
  check_bool "closed after both" true
    (Demi.wait_timeout demi tok ~timeout:1000L = Types.Failed `Queue_closed)

let qconnect_across_kinds () =
  (* splice a memq into a TCP connection queue: elements flow onto the
     wire and out of the peer *)
  let w = Setup.world Demikernel in
  start_echo w.server 7;
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7));
  let src = Demi.queue w.client in
  ignore (Demi.qconnect w.client ~src ~dst:qd);
  ignore (Demi.blocking_push w.client src (sga_str "via splice"));
  check_str "echoed through the splice" "via splice"
    (expect_popped (Demi.blocking_pop w.client qd))

let wait_all_partial_timeout () =
  let engine, demi = solo_demi () in
  let q1 = Demi.queue demi and q2 = Demi.queue demi in
  let t1 = Result.get_ok (Demi.pop demi q1) in
  let t2 = Result.get_ok (Demi.pop demi q2) in
  ignore
    (Engine.after engine 100L (fun () ->
         ignore (Demi.push demi q1 (sga_str "only one"))));
  (* only t1 completes; wait_all must time out and leave t1 redeemable *)
  check_bool "timed out" true (Demi.wait_all ~timeout:5000L demi [ t1; t2 ] = None);
  check_str "t1 still redeemable" "only one"
    (expect_popped (Demi.wait demi t1))

let double_close_is_bad_qd () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  check_bool "first close" true (Demi.close demi qd = Ok ());
  check_bool "second close" true (Demi.close demi qd = Error `Bad_qd)

let steer_invalid_ways () =
  let _, demi = solo_demi () in
  let qd = Demi.queue demi in
  Alcotest.check_raises "ways=0"
    (Invalid_argument "Demi.steer: ways must be positive") (fun () ->
      ignore (Demi.steer demi qd ~ways:0 ~hash_off:0 ~hash_len:4))

let push_after_peer_close_fails () =
  let w = Setup.world Demikernel in
  let server_qd = ref None in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:7);
  ignore (Demi.listen w.server lqd);
  Demi.watch w.server
    (Result.get_ok (Demi.accept_async w.server lqd))
    (function Types.Accepted qd -> server_qd := Some qd | _ -> ());
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  ignore (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7));
  ignore (Engine.run_until w.engine (fun () -> !server_qd <> None));
  let sqd = Option.get !server_qd in
  (* graceful peer close: half-close semantics — the server may still
     send (the client's read side is open until the server FINs) *)
  ignore (Demi.close w.client qd);
  Engine.run w.engine;
  let half_close_push =
    match Demi.push w.server sqd (sga_str "half-close data") with
    | Error e -> Types.Failed e
    | Ok tok -> Demi.wait_timeout w.server tok ~timeout:1_000_000L
  in
  check_bool "half-close push still works" true
    (half_close_push = Types.Pushed);
  (* but after the server closes too, pushes must fail *)
  ignore (Demi.close w.server sqd);
  check_bool "push after full close fails" true
    (Demi.push w.server sqd (sga_str "too late") = Error `Bad_qd)

(* ---------------- device-offloaded filter ---------------- *)

let filter_offloads_on_programmable_nic () =
  let w = Setup.world ~programmable:true Demikernel in
  (* server-side UDP queue with device filter *)
  let sqd = Result.get_ok (Demi.socket w.server `Udp) in
  ignore (Demi.bind w.server sqd ~port:1000);
  let fq = Result.get_ok (Demi.filter w.server sqd (Prog.Prefix "keep")) in
  check_bool "offloaded" true (Demi.filter_offloaded w.server fq);
  (* client sends matching and non-matching datagrams *)
  let cqd = Result.get_ok (Demi.socket w.client `Udp) in
  ignore (Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 1000));
  ignore (Demi.blocking_push w.client cqd (sga_str "drop this"));
  ignore (Demi.blocking_push w.client cqd (sga_str "keep this"));
  check_str "only the matching one arrives" "keep this"
    (expect_popped (Demi.blocking_pop w.server fq));
  (* the dropped frame never consumed host CPU: it was filtered on-NIC *)
  let stats = Dk_device.Nic.stats w.b.Setup.nic in
  check_bool "device filtered at least one frame" true
    (stats.Dk_device.Nic.rx_filtered >= 1)

let offload_does_not_break_other_traffic () =
  let w = Setup.world ~programmable:true Demikernel in
  (* a filtered queue on port 1000 must not affect port 2000 *)
  let sqd = Result.get_ok (Demi.socket w.server `Udp) in
  ignore (Demi.bind w.server sqd ~port:1000);
  ignore (Demi.filter w.server sqd (Prog.Prefix "keep"));
  let other = Result.get_ok (Demi.socket w.server `Udp) in
  ignore (Demi.bind w.server other ~port:2000);
  let cqd = Result.get_ok (Demi.socket w.client `Udp) in
  ignore (Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 2000));
  ignore (Demi.blocking_push w.client cqd (sga_str "unfiltered traffic"));
  check_str "arrives untouched" "unfiltered traffic"
    (expect_popped (Demi.blocking_pop w.server other))

(* ---------------- storage queues ---------------- *)

let demi_with_block () =
  let engine = Engine.create () in
  let block = Dk_device.Block.create ~engine ~cost () in
  let demi = Demi.create ~engine ~cost ~block () in
  (engine, demi)

let file_queue_roundtrip () =
  let _, demi = demi_with_block () in
  let qd = Result.get_ok (Demi.fcreate demi "wal") in
  ignore (Demi.blocking_push demi qd (Sga.of_strings [ "rec"; "ord1" ]));
  ignore (Demi.blocking_push demi qd (sga_str "record2"));
  (match Demi.blocking_pop demi qd with
  | Types.Popped sga ->
      check_str "first record" "record1" (Sga.to_string sga);
      check_int "segments preserved on disk" 2 (Sga.segment_count sga)
  | r -> Alcotest.failf "unexpected %a" Types.pp_op_result r);
  check_str "second record" "record2" (expect_popped (Demi.blocking_pop demi qd))

let file_queue_durability_latency () =
  (* a push takes at least the NVMe program latency *)
  let engine, demi = demi_with_block () in
  let qd = Result.get_ok (Demi.fcreate demi "lat") in
  let t0 = Engine.now engine in
  ignore (Demi.blocking_push demi qd (sga_str "data"));
  let elapsed = Int64.sub (Engine.now engine) t0 in
  check_bool "waited for flash" true
    (Int64.compare elapsed cost.Cost.nvme_write >= 0)

let file_queue_recovery () =
  let _, demi = demi_with_block () in
  let qd = Result.get_ok (Demi.fcreate demi "db") in
  List.iter
    (fun s -> ignore (Demi.blocking_push demi qd (sga_str s)))
    [ "alpha"; "beta"; "gamma" ];
  ignore (Demi.close demi qd);
  (* re-open: recovery scans the log from the device *)
  let qd2 = Result.get_ok (Demi.fopen demi "db") in
  check_str "alpha" "alpha" (expect_popped (Demi.blocking_pop demi qd2));
  check_str "beta" "beta" (expect_popped (Demi.blocking_pop demi qd2));
  check_str "gamma" "gamma" (expect_popped (Demi.blocking_pop demi qd2))

let file_queue_append_after_recovery () =
  let _, demi = demi_with_block () in
  let qd = Result.get_ok (Demi.fcreate demi "log") in
  ignore (Demi.blocking_push demi qd (sga_str "old"));
  ignore (Demi.close demi qd);
  let qd2 = Result.get_ok (Demi.fopen demi "log") in
  ignore (Demi.blocking_push demi qd2 (sga_str "new"));
  check_str "old first" "old" (expect_popped (Demi.blocking_pop demi qd2));
  check_str "then new" "new" (expect_popped (Demi.blocking_pop demi qd2))

(* Reading a log back parses from a cursor over the fetched bytes:
   popping twice the records allocates about twice as much, not four
   times. Counted in words allocated on both heaps, because the copies
   that made it quadratic were too large for the minor heap. *)
let file_queue_readback_linear () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let pop_words n =
    let _, demi = demi_with_block () in
    let qd = Result.get_ok (Demi.fcreate demi "lin") in
    let record = String.make 100 'r' in
    for _ = 1 to n do
      ignore (Demi.blocking_push demi qd (sga_str record))
    done;
    let before = words () in
    for _ = 1 to n do
      ignore (expect_popped (Demi.blocking_pop demi qd))
    done;
    words () -. before
  in
  let one = pop_words 1000 and two = pop_words 2000 in
  check_bool
    (Printf.sprintf "2,000 pops (%.0f words) within 2.5x of 1,000 (%.0f)" two
       one)
    true
    (two <= 2.5 *. one)

(* The file queue frames its records too: an oversized push is refused
   before anything reaches the log. *)
let file_queue_oversized_push_refused () =
  let _, demi = demi_with_block () in
  let qd = Result.get_ok (Demi.fcreate demi "big") in
  check_bool "max_message + 1 B refused" true
    (Demi.blocking_push demi qd (Lazy.force oversized_message)
    = Types.Failed `Not_supported);
  ignore (Demi.blocking_push demi qd (sga_str "after"));
  check_str "next record round-trips" "after"
    (expect_popped (Demi.blocking_pop demi qd))

let fopen_unknown_fails () =
  let _, demi = demi_with_block () in
  check_bool "no such file" true (Demi.fopen demi "ghost" = Error `Bad_qd)

(* Property: arbitrary record batches round-trip through the on-disk
   log with order, contents and segment boundaries intact. *)
let file_queue_roundtrip_prop =
  QCheck.Test.make ~name:"file queue round-trips arbitrary records" ~count:25
    QCheck.(small_list (small_list (string_of_size Gen.(0 -- 64))))
    (fun records ->
      QCheck.assume (records <> []);
      (* Framing requires at least one segment; normalise *)
      let records = List.map (function [] -> [ "" ] | r -> r) records in
      let engine = Engine.create () in
      let block = Dk_device.Block.create ~engine ~cost () in
      let demi = Demi.create ~engine ~cost ~block () in
      let qd = Result.get_ok (Demi.fcreate demi "prop.log") in
      List.for_all
        (fun segs ->
          Demi.blocking_push demi qd (Sga.of_strings segs) = Types.Pushed)
        records
      && List.for_all
           (fun segs ->
             match Demi.blocking_pop demi qd with
             | Types.Popped sga ->
                 List.map Dk_mem.Buffer.to_string (Sga.segments sga) = segs
             | _ -> false)
           records)

(* Property: UDP queues deliver each datagram as one atomic element,
   never merged or split, in order. *)
let udp_atomicity_prop =
  QCheck.Test.make ~name:"udp datagrams stay atomic and ordered" ~count:20
    QCheck.(small_list (string_of_size Gen.(1 -- 400)))
    (fun payloads ->
      QCheck.assume (payloads <> []);
      let w = Setup.world Demikernel in
      let sqd = Result.get_ok (Demi.socket w.server `Udp) in
      (match Demi.bind w.server sqd ~port:9 with Ok () -> () | Error _ -> ());
      let cqd = Result.get_ok (Demi.socket w.client `Udp) in
      (match Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 9) with
      | Ok () -> ()
      | Error _ -> ());
      List.iter
        (fun payload ->
          ignore (Demi.blocking_push w.client cqd (sga_str payload)))
        payloads;
      List.for_all
        (fun want ->
          match
            Demi.wait_timeout w.server (Result.get_ok (Demi.pop w.server sqd))
              ~timeout:10_000_000L
          with
          | Types.Popped sga -> String.equal want (Sga.to_string sga)
          | _ -> false)
        payloads)

(* Property: a sorted queue drained after a full batch pops in
   priority order (stable for ties). *)
let compose_sort_prop =
  QCheck.Test.make ~name:"sort pops in priority order" ~count:100
    QCheck.(small_list (string_of_size Gen.(0 -- 12)))
    (fun inputs ->
      let engine = Engine.create () in
      let demi = Demi.create ~engine ~cost () in
      let base = Demi.queue demi in
      let sq =
        Result.get_ok
          (Demi.sort demi base (fun a b -> Sga.length a < Sga.length b))
      in
      List.iter
        (fun s -> ignore (Demi.blocking_push demi sq (sga_str s)))
        inputs;
      (* drain after all arrived: lengths must be non-decreasing *)
      let rec drain acc =
        match
          Demi.wait_timeout demi (Result.get_ok (Demi.pop demi sq))
            ~timeout:1000L
        with
        | Types.Popped sga -> drain (Sga.length sga :: acc)
        | _ -> List.rev acc
      in
      let lens = drain [] in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      List.length lens = List.length inputs && sorted lens)

(* Property: filter-then-map over a memq equals the list-model
   computation. *)
let compose_pipeline_prop =
  QCheck.Test.make ~name:"filter+map pipeline matches list model" ~count:100
    QCheck.(small_list (string_of_size Gen.(0 -- 20)))
    (fun inputs ->
      let _, demi =
        let engine = Engine.create () in
        (engine, Demi.create ~engine ~cost ())
      in
      let base = Demi.queue demi in
      let fq =
        Result.get_ok (Demi.filter_fn demi base (fun sga -> Sga.length sga mod 2 = 0))
      in
      let mq =
        Result.get_ok
          (Demi.map_fn demi fq (fun sga ->
               sga_str (String.uppercase_ascii (Sga.to_string sga))))
      in
      List.iter
        (fun sga_contents ->
          ignore (Demi.blocking_push demi base (sga_str sga_contents)))
        inputs;
      let expected =
        inputs
        |> List.filter (fun s -> String.length s mod 2 = 0)
        |> List.map String.uppercase_ascii
      in
      List.for_all
        (fun want ->
          match
            Demi.wait_timeout demi (Result.get_ok (Demi.pop demi mq))
              ~timeout:1000L
          with
          | Types.Popped sga -> String.equal want (Sga.to_string sga)
          | _ -> false)
        expected)

(* ---------------- RDMA queues ---------------- *)

let rdma_pair () =
  let engine = Engine.create () in
  let rdma_a = Dk_device.Rdma.create ~engine ~cost () in
  let rdma_b = Dk_device.Rdma.create ~engine ~cost () in
  let da = Demi.create ~engine ~cost ~rdma:rdma_a () in
  let db = Demi.create ~engine ~cost ~rdma:rdma_b () in
  let qa = Dk_device.Rdma.create_qp rdma_a in
  let qb = Dk_device.Rdma.create_qp rdma_b in
  Dk_device.Rdma.connect qa qb;
  let qda = Result.get_ok (Demi.rdma_endpoint da ~depth:8 qa) in
  let qdb = Result.get_ok (Demi.rdma_endpoint db ~depth:8 qb) in
  (engine, da, db, qda, qdb, rdma_a, rdma_b)

let rdma_roundtrip () =
  let _, da, db, qda, qdb, _, _ = rdma_pair () in
  let sga = Result.get_ok (Demi.sga_alloc da "over the rdma fabric") in
  check_bool "pushed" true (Demi.blocking_push da qda sga = Types.Pushed);
  check_str "delivered" "over the rdma fabric"
    (expect_popped (Demi.blocking_pop db qdb))

let rdma_transparent_registration () =
  (* the app never registered anything; the manager's regions were
     registered with the device automatically (§4.5) *)
  let _, da, _, qda, _, rdma_a, _ = rdma_pair () in
  let sga = Result.get_ok (Demi.sga_alloc da "auto-registered") in
  ignore (Demi.blocking_push da qda sga);
  check_int "no registration failures" 0
    (Dk_device.Rdma.stats rdma_a).Dk_device.Rdma.registration_failures;
  check_bool "regions registered" true
    (Dk_mem.Registry.registrations (Demi.registry da) >= 1)

let rdma_flow_control_no_rnr () =
  (* burst of 3x the queue depth: libOS credits must prevent RNR *)
  let _, da, db, qda, qdb, rdma_a, _ = rdma_pair () in
  let toks =
    List.init 24 (fun i ->
        let sga = Result.get_ok (Demi.sga_alloc da (Printf.sprintf "m%02d" i)) in
        Result.get_ok (Demi.push da qda sga))
  in
  (* drain on the receiver so buffers recycle *)
  let received = ref [] in
  for _ = 1 to 24 do
    match Demi.blocking_pop db qdb with
    | Types.Popped sga -> received := Sga.to_string sga :: !received
    | r -> Alcotest.failf "pop failed: %a" Types.pp_op_result r
  done;
  List.iter (fun tok -> ignore (Demi.wait da tok)) toks;
  check_int "all delivered" 24 (List.length !received);
  check_int "zero RNR events" 0
    (Dk_device.Rdma.stats rdma_a).Dk_device.Rdma.rnr_events;
  (* in-order delivery *)
  check_str "first message" "m00" (List.nth (List.rev !received) 0)

let rdma_free_protection_e2e () =
  let _, da, db, qda, qdb, _, _ = rdma_pair () in
  let sga = Result.get_ok (Demi.sga_alloc da "protected payload") in
  let tok = Result.get_ok (Demi.push da qda sga) in
  (* free immediately, while DMA is in flight *)
  Demi.sga_free da sga;
  check_bool "push still completes" true (Demi.wait da tok = Types.Pushed);
  check_str "payload intact" "protected payload"
    (expect_popped (Demi.blocking_pop db qdb));
  let st = Dk_mem.Manager.stats (Demi.manager da) in
  check_bool "a release was deferred" true (st.Dk_mem.Manager.deferred_releases >= 1)

(* §4.4: "Applications can easily replace an application-level epoll
   loop with a call to wait_any." A server whose main loop is exactly
   that: wait_any over the accept token and every connection's pop
   token. The clients here are callback-driven so the server loop is
   the simulation driver. *)
let wait_any_server_loop () =
  let w = Setup.world Demikernel in
  (* the server listens first (connect is blocking and needs it) *)
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  ignore (Demi.bind w.server lqd ~port:7);
  ignore (Demi.listen w.server lqd);
  (* callback clients: 4 connections, 3 requests each *)
  let n_conns = 4 and per_conn = 3 in
  let replies = ref 0 in
  for c = 1 to n_conns do
    let qd = Result.get_ok (Demi.socket w.client `Tcp) in
    (match Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "connect");
    let rec request i =
      if i <= per_conn then
        match Demi.push w.client qd (sga_str (Printf.sprintf "c%d-m%d" c i)) with
        | Ok tok ->
            Demi.watch w.client tok (fun _ ->
                match Demi.pop w.client qd with
                | Ok ptok ->
                    Demi.watch w.client ptok (function
                      | Types.Popped _ ->
                          incr replies;
                          request (i + 1)
                      | _ -> ())
                | Error _ -> ())
        | Error _ -> ()
    in
    request 1
  done;
  (* the wait_any server: ONE loop, no epoll, no callbacks *)
  let total = n_conns * per_conn in
  let served = ref 0 in
  let tokens = ref [] in
  let token_qd = Hashtbl.create 8 in
  let add_tok qd tok =
    tokens := tok :: !tokens;
    Hashtbl.replace token_qd tok qd
  in
  add_tok lqd (Result.get_ok (Demi.accept_async w.server lqd));
  let rec serve () =
    if !served < total then
      match Demi.wait_any ~timeout:10_000_000L w.server !tokens with
      | None -> Alcotest.fail "server loop starved"
      | Some (tok, result) ->
          let qd = Hashtbl.find token_qd tok in
          tokens := List.filter (fun t -> t <> tok) !tokens;
          Hashtbl.remove token_qd tok;
          (match result with
          | Types.Accepted conn_qd ->
              (* re-arm accept, arm a pop on the new connection *)
              add_tok lqd (Result.get_ok (Demi.accept_async w.server lqd));
              add_tok conn_qd (Result.get_ok (Demi.pop w.server conn_qd))
          | Types.Popped sga ->
              incr served;
              (match Demi.push w.server qd sga with
              | Ok ptok -> Demi.watch w.server ptok (fun _ -> ())
              | Error _ -> ());
              add_tok qd (Result.get_ok (Demi.pop w.server qd))
          | Types.Failed _ -> ()
          | Types.Pushed -> ());
          serve ()
  in
  serve ();
  ignore
    (Engine.run_until w.engine (fun () -> !replies >= total));
  check_int "server served all" total !served;
  check_int "clients got all replies" total !replies

(* The kernel-fallback queues still deliver atomic sgas with their
   segment boundaries (framing over the kernel byte stream). *)
let posix_fallback_preserves_boundaries () =
  let w = Setup.world Fallback in
  (* echo server over the fallback libOS *)
  (match Dk_apps.Echo.serve w with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server: %s" (Types.error_to_string e));
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  (match Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "connect: %s" (Types.error_to_string e));
  let sga = Sga.of_strings [ "three"; "atomic"; "segments" ] in
  check_bool "pushed" true (Demi.blocking_push w.client qd sga = Types.Pushed);
  match Demi.blocking_pop w.client qd with
  | Types.Popped reply ->
      check_int "segments preserved through the kernel" 3
        (Sga.segment_count reply);
      check_str "payload" "threeatomicsegments" (Sga.to_string reply)
  | r -> Alcotest.failf "unexpected %a" Types.pp_op_result r

(* ---------------- memory interface ---------------- *)

let sga_alloc_registered () =
  let w = Setup.world Demikernel in
  let sga = Result.get_ok (Demi.sga_alloc w.client "registered bytes") in
  let regions = Dk_mem.Manager.regions (Demi.manager w.client) in
  check_bool "one region" true (List.length regions >= 1);
  List.iter
    (fun r ->
      check_bool "registered with nic" true
        (Dk_mem.Registry.is_registered (Demi.registry w.client)
           ~region_id:(Dk_mem.Region.id r) ~device:"nic0");
      check_bool "pinned" true (Dk_mem.Region.pinned r))
    regions;
  Demi.sga_free w.client sga

let sga_alloc_segs_multi () =
  let _, demi = solo_demi () in
  match Demi.sga_alloc_segs demi [ "a"; "bb"; "ccc" ] with
  | Ok sga ->
      check_int "segments" 3 (Sga.segment_count sga);
      check_int "length" 6 (Sga.length sga);
      Demi.sga_free demi sga
  | Error _ -> Alcotest.fail "alloc failed"

(* ---------------- control-path errors ---------------- *)

let socket_errors () =
  let _, demi = solo_demi () in
  (* no stack attached *)
  check_bool "no stack" true (Demi.socket demi `Tcp = Error `Not_supported);
  check_bool "no storage" true (Demi.fcreate demi "f" = Error `Not_supported);
  check_bool "bad qd push" true
    (Demi.push demi 4242 (sga_str "x") = Error `Bad_qd);
  check_bool "bad qd pop" true (Demi.pop demi 4242 = Error `Bad_qd)

let listen_requires_bind () =
  let w = Setup.world Demikernel in
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  check_bool "listen unbound fails" true (Demi.listen w.client qd = Error `Not_supported)

let qsuite_core name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "demikernel-core"
    [
      ( "tokens",
        [
          Alcotest.test_case "bad token" `Quick wait_bad_token;
          Alcotest.test_case "deadlock" `Quick wait_deadlock;
          Alcotest.test_case "wait charges poll" `Quick wait_charges_poll;
        ] );
      ( "memq",
        [
          Alcotest.test_case "fifo" `Quick memq_fifo;
          Alcotest.test_case "sga atomicity" `Quick memq_atomicity;
          Alcotest.test_case "pop before push" `Quick memq_pop_before_push;
          Alcotest.test_case "close fails pops" `Quick memq_close_fails_pop;
          Alcotest.test_case "exactly one wakeup" `Quick memq_exactly_one_wakeup;
        ] );
      ( "wait",
        [
          Alcotest.test_case "wait_any first" `Quick wait_any_returns_first;
          Alcotest.test_case "wait_any timeout" `Quick wait_any_timeout;
          Alcotest.test_case "wait_all collects" `Quick wait_all_collects;
          Alcotest.test_case "timeout keeps token" `Quick wait_timeout_keeps_token;
          Alcotest.test_case "deadline tie redeems" `Quick wait_timeout_deadline_tie;
          Alcotest.test_case "just-late times out" `Quick wait_timeout_just_late;
          Alcotest.test_case "timeout bad token" `Quick wait_timeout_bad_token;
          Alcotest.test_case "wait_all partial timeout" `Quick wait_all_partial_timeout;
        ] );
      ( "tcp-queues",
        [
          Alcotest.test_case "echo" `Quick tcp_queue_echo;
          Alcotest.test_case "large message" `Quick tcp_queue_large_message;
          Alcotest.test_case "connect refused" `Quick tcp_connect_refused;
          Alcotest.test_case "close propagates" `Quick tcp_close_propagates;
          Alcotest.test_case "bad framing aborts one conn" `Quick
            tcp_bad_framing_aborts_one_conn;
          Alcotest.test_case "popped message keeps its store" `Quick
            popped_message_keeps_its_store;
          Alcotest.test_case "close listener" `Quick close_listener_fails_pending_accept;
          Alcotest.test_case "udp roundtrip" `Quick udp_queue_roundtrip;
          Alcotest.test_case "udp oversized push" `Quick udp_queue_oversized_push;
          Alcotest.test_case "tcp oversized push" `Quick
            tcp_oversized_push_refused;
          Alcotest.test_case "wait_any server loop" `Quick wait_any_server_loop;
          Alcotest.test_case "posix fallback boundaries" `Quick
            posix_fallback_preserves_boundaries;
        ] );
      ( "compose",
        [
          Alcotest.test_case "filter cpu" `Quick filter_cpu_fallback;
          Alcotest.test_case "filter charges cpu" `Quick filter_charges_cpu;
          Alcotest.test_case "map" `Quick map_transforms;
          Alcotest.test_case "map_fn" `Quick map_fn_pop_only;
          Alcotest.test_case "sort priority" `Quick sort_priority;
          Alcotest.test_case "merge pops both" `Quick merge_pops_both;
          Alcotest.test_case "merge push duplicates" `Quick merge_push_duplicates;
          Alcotest.test_case "merge half-close" `Quick merge_stays_open_until_both_close;
          Alcotest.test_case "qconnect across kinds" `Quick qconnect_across_kinds;
          Alcotest.test_case "qconnect" `Quick qconnect_splices;
          Alcotest.test_case "steer partitions" `Quick steer_partitions_completely;
          Alcotest.test_case "steer per-key fifo" `Quick steer_is_deterministic_per_key;
        ] );
      ( "offload",
        [
          Alcotest.test_case "filter offloads" `Quick filter_offloads_on_programmable_nic;
          Alcotest.test_case "scoped to port" `Quick offload_does_not_break_other_traffic;
        ] );
      ( "storage",
        [
          Alcotest.test_case "roundtrip" `Quick file_queue_roundtrip;
          Alcotest.test_case "durability latency" `Quick file_queue_durability_latency;
          Alcotest.test_case "recovery" `Quick file_queue_recovery;
          Alcotest.test_case "append after recovery" `Quick file_queue_append_after_recovery;
          Alcotest.test_case "fopen unknown" `Quick fopen_unknown_fails;
          Alcotest.test_case "oversized push" `Quick
            file_queue_oversized_push_refused;
          Alcotest.test_case "read-back linear" `Quick
            file_queue_readback_linear;
        ] );
      qsuite_core "core-props"
        [
          file_queue_roundtrip_prop;
          compose_pipeline_prop;
          compose_sort_prop;
          udp_atomicity_prop;
        ];
      ( "rdma",
        [
          Alcotest.test_case "roundtrip" `Quick rdma_roundtrip;
          Alcotest.test_case "transparent registration" `Quick rdma_transparent_registration;
          Alcotest.test_case "flow control" `Quick rdma_flow_control_no_rnr;
          Alcotest.test_case "free-protection" `Quick rdma_free_protection_e2e;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc registered" `Quick sga_alloc_registered;
          Alcotest.test_case "multi-segment alloc" `Quick sga_alloc_segs_multi;
        ] );
      ( "control-path",
        [
          Alcotest.test_case "errors" `Quick socket_errors;
          Alcotest.test_case "listen requires bind" `Quick listen_requires_bind;
          Alcotest.test_case "double close" `Quick double_close_is_bad_qd;
          Alcotest.test_case "steer invalid ways" `Quick steer_invalid_ways;
          Alcotest.test_case "half-close semantics" `Quick push_after_peer_close_fails;
        ] );
    ]
