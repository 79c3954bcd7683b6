(* Tests for the application layer: workload generators, the KV
   protocol, the store, and end-to-end servers/clients on both the
   Demikernel and POSIX interfaces — including the latency-shape
   assertions that mirror the paper's claims. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Workload = Dk_apps.Workload
module Proto = Dk_apps.Proto
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module Kv_posix = Dk_apps.Kv_posix
module Echo = Dk_apps.Echo
module Setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi


(* ---------------- Workload ---------------- *)

let zipf_skew () =
  let wl = Workload.create (Workload.Zipf { n = 1000; theta = 0.99 }) in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let k = Workload.next_key wl in
    counts.(k) <- counts.(k) + 1
  done;
  (* rank-0 key must dominate any deep-tail key *)
  check_bool "head hot" true (counts.(0) > 10 * (counts.(900) + 1));
  check_bool "in range" true (Array.for_all (fun c -> c >= 0) counts)

let uniform_coverage () =
  let wl = Workload.create (Workload.Uniform 10) in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Workload.next_key wl) <- true
  done;
  check_bool "all keys drawn" true (Array.for_all (fun b -> b) seen)

let workload_mix () =
  let wl = Workload.create (Workload.Uniform 10) in
  let gets = ref 0 in
  for _ = 1 to 10_000 do
    if Workload.is_get wl ~read_fraction:0.9 then incr gets
  done;
  check_bool "~90% reads" true (!gets > 8500 && !gets < 9500)

let workload_value_size () =
  let wl = Workload.create (Workload.Uniform 10) in
  check_int "exact size" 100 (String.length (Workload.value wl ~size:100));
  check_int "small size" 3 (String.length (Workload.value wl ~size:3))

let zipf_deterministic () =
  let a = Workload.create ~seed:5L (Workload.Zipf { n = 100; theta = 0.9 }) in
  let b = Workload.create ~seed:5L (Workload.Zipf { n = 100; theta = 0.9 }) in
  for _ = 1 to 100 do
    check_int "same stream" (Workload.next_key a) (Workload.next_key b)
  done

(* ---------------- Proto ---------------- *)

let proto_roundtrips () =
  let reqs =
    [ Proto.Get "k"; Proto.Set ("key", "value with spaces"); Proto.Del "gone" ]
  in
  List.iter
    (fun r ->
      check_bool "request roundtrip" true
        (Proto.request_of_segments (Proto.request_segments r) = Some r))
    reqs;
  let resps = [ Proto.Value "v"; Proto.Not_found; Proto.Stored; Proto.Deleted ] in
  List.iter
    (fun r ->
      check_bool "response roundtrip" true
        (Proto.response_of_segments (Proto.response_segments r) = Some r))
    resps;
  check_bool "garbage rejected" true (Proto.request_of_segments [ "?" ] = None)

let proto_sga_roundtrip () =
  let r = Proto.Set ("k1", "v1") in
  check_bool "sga roundtrip" true (Proto.request_of_sga (Proto.request_sga r) = Some r)

let proto_value_response_shares_buffer () =
  let mgr = Dk_mem.Manager.create () in
  let buf = Dk_mem.Manager.alloc_exn mgr 8 in
  Dk_mem.Buffer.blit_from_string "thevalue" 0 buf 0 8;
  let sga = Proto.value_response_sga buf in
  (match Proto.response_of_sga sga with
  | Some (Proto.Value v) -> check_str "value" "thevalue" v
  | _ -> Alcotest.fail "decode");
  (* mutating the stored buffer shows through: no copy was made *)
  Dk_mem.Buffer.set buf 0 'T';
  match Proto.response_of_sga sga with
  | Some (Proto.Value v) -> check_str "shared" "Thevalue" v
  | _ -> Alcotest.fail "decode2"

(* ---------------- Kv ---------------- *)

(* Codec properties: both codecs are total on arbitrary input and
   exact on every message, SET keys up to the 2-byte length limit
   included. *)

let proto_key =
  QCheck.Gen.(
    frequency [ (9, string_size (0 -- 16)); (1, string_size (0 -- 0xffff)) ])

let proto_request =
  let open QCheck.Gen in
  let value = string_size (0 -- 64) in
  QCheck.make
    ~print:(function
      | Proto.Get k -> Printf.sprintf "Get (%d-byte key)" (String.length k)
      | Proto.Set (k, v) ->
          Printf.sprintf "Set (%d-byte key, %S)" (String.length k) v
      | Proto.Del k -> Printf.sprintf "Del (%d-byte key)" (String.length k))
    (oneof
       [
         map (fun k -> Proto.Get k) proto_key;
         map2 (fun k v -> Proto.Set (k, v)) proto_key value;
         map (fun k -> Proto.Del k) proto_key;
       ])

let proto_response =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun r -> String.concat "|" (Proto.response_segments r))
    (oneof
       [
         map (fun v -> Proto.Value v) (string_size (0 -- 64));
         return Proto.Not_found;
         return Proto.Stored;
         return Proto.Deleted;
       ])

let u16be n =
  String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff))

let proto_requests_roundtrip =
  QCheck.Test.make ~name:"requests round-trip through both codecs" ~count:300
    proto_request (fun r ->
      Proto.request_of_segments (Proto.request_segments r) = Some r
      && Proto.request_of_sga (Proto.request_sga r) = Some r
      && Proto.udp_request_of_string (Proto.udp_request_string r) = Some r)

let proto_responses_roundtrip =
  (* The datagram reply has no decoder of its own: it is the segment
     encoding flattened, which is what lets a device-served reply match
     a host-served one byte for byte. *)
  QCheck.Test.make ~name:"responses round-trip; a datagram reply is the \
    segments flattened" ~count:300 proto_response (fun r ->
      Proto.response_of_segments (Proto.response_segments r) = Some r
      && Proto.response_of_sga (Proto.response_sga r) = Some r
      && Proto.udp_response_string r
         = String.concat "" (Proto.response_segments r))

let proto_decoders_total =
  (* Inputs start with a real tag often enough to reach every branch. *)
  let tagged =
    QCheck.Gen.(
      map2
        (fun tag rest -> if tag = "" then rest else tag ^ rest)
        (oneofl [ ""; "G"; "S"; "D"; "+"; "-"; "!"; "x" ])
        (string_size (0 -- 8)))
  in
  QCheck.Test.make ~name:"decoders never raise" ~count:1000
    QCheck.(
      make
        ~print:(fun (s, segs) -> Printf.sprintf "%S / [%s]" s
                  (String.concat "; " (List.map (Printf.sprintf "%S") segs)))
        Gen.(pair tagged (list_size (0 -- 4) tagged)))
    (fun (s, segs) ->
      ignore (Proto.udp_request_of_string s);
      ignore (Proto.request_of_segments segs);
      ignore (Proto.response_of_segments segs);
      ignore (Proto.request_of_sga (Dk_mem.Sga.of_strings segs));
      ignore (Proto.response_of_sga (Dk_mem.Sga.of_strings segs));
      true)

let proto_set_key_overrun =
  QCheck.Test.make ~name:"a SET key length past the datagram is None"
    ~count:300
    QCheck.(pair (int_range 1 0xffff) (string_of_size Gen.(0 -- 64)))
    (fun (klen, rest) ->
      let rest = String.sub rest 0 (Int.min (String.length rest) (klen - 1)) in
      Proto.udp_request_of_string ("S" ^ u16be klen ^ rest) = None
      && Proto.udp_request_of_string ("S" ^ String.sub (u16be klen) 0 1)
         = None)

let kv_basic () =
  let kv = Kv.create (Dk_mem.Manager.create ()) in
  check_bool "set" true (Kv.set kv "a" "1");
  check_bool "get hit" true (Kv.get_copy kv "a" = Some "1");
  check_bool "get miss" true (Kv.get_copy kv "b" = None);
  check_bool "overwrite" true (Kv.set kv "a" "2");
  check_bool "new value" true (Kv.get_copy kv "a" = Some "2");
  check_bool "del" true (Kv.del kv "a");
  check_bool "del miss" false (Kv.del kv "a");
  check_int "empty" 0 (Kv.size kv)

let kv_apply () =
  let kv = Kv.create (Dk_mem.Manager.create ()) in
  check_bool "set" true (Kv.apply kv (Proto.Set ("k", "v")) = Proto.Stored);
  check_bool "get" true (Kv.apply kv (Proto.Get "k") = Proto.Value "v");
  check_bool "del" true (Kv.apply kv (Proto.Del "k") = Proto.Deleted);
  check_bool "get miss" true (Kv.apply kv (Proto.Get "k") = Proto.Not_found)

(* Model-based property: Kv agrees with a simple Map. *)
let kv_model_prop =
  QCheck.Test.make ~name:"kv matches model map" ~count:100
    QCheck.(
      small_list
        (triple (int_bound 2) (string_of_size Gen.(1 -- 8)) (string_of_size Gen.(0 -- 32))))
    (fun script ->
      let kv = Kv.create (Dk_mem.Manager.create ()) in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, key, value) ->
          match op with
          | 0 ->
              ignore (Kv.set kv key value);
              Hashtbl.replace model key value;
              true
          | 1 ->
              let expected = Hashtbl.find_opt model key in
              Kv.get_copy kv key = expected
          | _ ->
              let existed = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Kv.del kv key = existed)
        script)

let kv_overwrite_frees_old_value () =
  let mgr = Dk_mem.Manager.create () in
  let kv = Kv.create mgr in
  ignore (Kv.set kv "k" (String.make 64 'a'));
  let before = (Dk_mem.Manager.stats mgr).Dk_mem.Manager.releases in
  ignore (Kv.set kv "k" (String.make 64 'b'));
  let after = (Dk_mem.Manager.stats mgr).Dk_mem.Manager.releases in
  check_int "old buffer released" (before + 1) after

(* ---------------- end-to-end KV ---------------- *)

let demi_kv_end_to_end () =
  let w = Setup.world Demikernel in
  let kv = Kv.create (Demi.manager w.server) in
  let srv =
    match Kv_app.start_tcp_server ~demi:w.server ~port:6379 ~kv with
    | Ok s -> s
    | Error _ -> Alcotest.fail "server"
  in
  match
    Kv_app.run_tcp_client ~demi:w.client ~dst:(Setup.endpoint w.b 6379)
      ~ops:200 ~keys:50 ~value_size:64 ~read_fraction:0.9 ()
  with
  | Error _ -> Alcotest.fail "client"
  | Ok stats ->
      check_int "all ops" 200 stats.Kv_app.ops;
      (* keys were preloaded: every GET must hit *)
      check_int "no misses" 0 stats.Kv_app.misses;
      check_bool "server saw them" true (Kv_app.requests_served srv >= 250);
      check_int "latencies recorded" 200
        (Dk_sim.Histogram.count stats.Kv_app.latency)

let posix_kv_end_to_end () =
  let w = Setup.world Kernel in
  let kv = Kv.create (Dk_mem.Manager.create ()) in
  let srv =
    match
      Kv_posix.start_server ~posix:w.server ~cost:w.cost
        ~engine:w.engine ~port:6379 ~kv
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "server"
  in
  match
    Kv_posix.run_client ~posix:w.client ~engine:w.engine
      ~dst:(Setup.endpoint w.b 6379) ~ops:100 ~keys:20 ~value_size:64
      ~read_fraction:0.9 ()
  with
  | Error _ -> Alcotest.fail "client"
  | Ok stats ->
      check_int "all ops" 100 stats.Kv_app.ops;
      check_int "no misses" 0 stats.Kv_app.misses;
      check_bool "server processed" true (Kv_posix.requests_served srv >= 120)

(* The portability claim, end to end: the *identical* application code
   (Kv_app server and client, written against the Demikernel interface)
   runs over the kernel-fallback libOS on hosts with no accelerator —
   just slower. *)
let kernel_fallback_libos_runs_same_app () =
  let w = Setup.world Kernel in
  let da =
    Demi.create ~engine:w.engine ~cost:w.cost ~posix:w.client ()
  in
  let db =
    Demi.create ~engine:w.engine ~cost:w.cost ~posix:w.server ()
  in
  let kv = Kv.create (Demi.manager db) in
  let srv =
    match Kv_app.start_tcp_server ~demi:db ~port:6379 ~kv with
    | Ok s -> s
    | Error e -> Alcotest.failf "server: %s" (Demikernel.Types.error_to_string e)
  in
  match
    Kv_app.run_tcp_client ~demi:da ~dst:(Setup.endpoint w.b 6379)
      ~ops:100 ~keys:20 ~value_size:64 ~read_fraction:0.9 ()
  with
  | Error e -> Alcotest.failf "client: %s" (Demikernel.Types.error_to_string e)
  | Ok stats ->
      check_int "all ops" 100 stats.Kv_app.ops;
      check_int "no misses" 0 stats.Kv_app.misses;
      check_bool "served" true (Kv_app.requests_served srv >= 120);
      (* and it paid kernel prices: syscalls were made *)
      check_bool "kernel was involved" true
        ((Dk_kernel.Posix.stats w.server).Dk_kernel.Posix.syscalls > 100)

let fallback_slower_than_bypass () =
  let bypass_p50 =
    let w = Setup.world Demikernel in
    let kv = Kv.create (Demi.manager w.server) in
    ignore (Kv_app.start_tcp_server ~demi:w.server ~port:1 ~kv);
    match
      Kv_app.run_tcp_client ~demi:w.client ~dst:(Setup.endpoint w.b 1)
        ~ops:50 ~keys:10 ~value_size:256 ~read_fraction:1.0 ()
    with
    | Ok s -> Dk_sim.Histogram.quantile s.Kv_app.latency 0.5
    | Error _ -> Alcotest.fail "bypass run"
  in
  let fallback_p50 =
    let w = Setup.world Kernel in
    let da = Demi.create ~engine:w.engine ~cost:w.cost ~posix:w.client () in
    let db = Demi.create ~engine:w.engine ~cost:w.cost ~posix:w.server () in
    let kv = Kv.create (Demi.manager db) in
    ignore (Kv_app.start_tcp_server ~demi:db ~port:1 ~kv);
    match
      Kv_app.run_tcp_client ~demi:da ~dst:(Setup.endpoint w.b 1)
        ~ops:50 ~keys:10 ~value_size:256 ~read_fraction:1.0 ()
    with
    | Ok s -> Dk_sim.Histogram.quantile s.Kv_app.latency 0.5
    | Error _ -> Alcotest.fail "fallback run"
  in
  check_bool "fallback pays kernel prices" true
    (Int64.compare fallback_p50 bypass_p50 > 0)

(* The headline shape: demikernel KV latency beats the POSIX path. *)
let kv_latency_shape () =
  let run_demi () =
    let w = Setup.world Demikernel in
    let kv = Kv.create (Demi.manager w.server) in
    ignore (Kv_app.start_tcp_server ~demi:w.server ~port:1 ~kv);
    match
      Kv_app.run_tcp_client ~demi:w.client ~dst:(Setup.endpoint w.b 1)
        ~ops:100 ~keys:20 ~value_size:1024 ~read_fraction:1.0 ()
    with
    | Ok s -> Dk_sim.Histogram.quantile s.Kv_app.latency 0.5
    | Error _ -> Alcotest.fail "demi run"
  in
  let run_posix () =
    let w = Setup.world Kernel in
    let kv = Kv.create (Dk_mem.Manager.create ()) in
    ignore
      (Kv_posix.start_server ~posix:w.server ~cost:w.cost
         ~engine:w.engine ~port:1 ~kv);
    match
      Kv_posix.run_client ~posix:w.client ~engine:w.engine
        ~dst:(Setup.endpoint w.b 1) ~ops:100 ~keys:20 ~value_size:1024
        ~read_fraction:1.0 ()
    with
    | Ok s -> Dk_sim.Histogram.quantile s.Kv_app.latency 0.5
    | Error _ -> Alcotest.fail "posix run"
  in
  let demi_p50 = run_demi () and posix_p50 = run_posix () in
  check_bool "demikernel faster" true (Int64.compare demi_p50 posix_p50 < 0)

(* ---------------- echo across the three interfaces ---------------- *)

let echo_three_way_latency_order () =
  (* Demikernel < kernel < mTCP in *latency* — the §6 claim that
     mTCP's latency is worse than the kernel's. *)
  let demi_rtt =
    let w = Setup.world Demikernel in
    ignore (Echo.start_demi_server ~demi:w.server ~port:7);
    match
      Echo.demi_rtt ~demi:w.client ~dst:(Setup.endpoint w.b 7) ~size:64
        ~rounds:20
    with
    | h, None -> Dk_sim.Histogram.quantile h 0.5
    | _, Some _ -> Alcotest.fail "demi echo"
  in
  let posix_rtt =
    let w = Setup.world Kernel in
    ignore (Echo.start_posix_server ~posix:w.server ~port:7);
    match
      Echo.posix_rtt ~posix:w.client ~engine:w.engine
        ~dst:(Setup.endpoint w.b 7) ~size:64 ~rounds:20
    with
    | Ok h -> Dk_sim.Histogram.quantile h 0.5
    | Error _ -> Alcotest.fail "posix echo"
  in
  let mtcp_rtt =
    let w = Setup.world Mtcp in
    ignore (Echo.start_mtcp_server ~mtcp:w.server ~port:7);
    let h =
      Echo.mtcp_rtt ~mtcp:w.client ~engine:w.engine
        ~dst:(Setup.endpoint w.b 7) ~size:64 ~rounds:20
    in
    Dk_sim.Histogram.quantile h 0.5
  in
  check_bool "demikernel < kernel" true (Int64.compare demi_rtt posix_rtt < 0);
  check_bool "kernel < mtcp (latency)" true (Int64.compare posix_rtt mtcp_rtt < 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dk_apps"
    [
      ( "workload",
        [
          Alcotest.test_case "zipf skew" `Quick zipf_skew;
          Alcotest.test_case "uniform coverage" `Quick uniform_coverage;
          Alcotest.test_case "mix" `Quick workload_mix;
          Alcotest.test_case "value size" `Quick workload_value_size;
          Alcotest.test_case "deterministic" `Quick zipf_deterministic;
        ] );
      ( "proto",
        [
          Alcotest.test_case "roundtrips" `Quick proto_roundtrips;
          Alcotest.test_case "sga roundtrip" `Quick proto_sga_roundtrip;
          Alcotest.test_case "zero-copy value" `Quick proto_value_response_shares_buffer;
        ] );
      ( "kv",
        [
          Alcotest.test_case "basic" `Quick kv_basic;
          Alcotest.test_case "apply" `Quick kv_apply;
          Alcotest.test_case "overwrite frees" `Quick kv_overwrite_frees_old_value;
        ] );
      qsuite "proto-props"
        [
          proto_requests_roundtrip;
          proto_responses_roundtrip;
          proto_decoders_total;
          proto_set_key_overrun;
        ];
      qsuite "kv-props" [ kv_model_prop ];
      ( "end-to-end",
        [
          Alcotest.test_case "demikernel kv" `Quick demi_kv_end_to_end;
          Alcotest.test_case "posix kv" `Quick posix_kv_end_to_end;
          Alcotest.test_case "kernel-fallback libOS" `Quick kernel_fallback_libos_runs_same_app;
          Alcotest.test_case "fallback slower than bypass" `Quick fallback_slower_than_bypass;
          Alcotest.test_case "kv latency shape" `Quick kv_latency_shape;
          Alcotest.test_case "echo latency order" `Quick echo_three_way_latency_order;
        ] );
    ]
