(* Deep NIC offload: the device-resident table, the rx pipeline kv GET
   hot path, and its coherence protocol.

   The load-bearing assertions:
   - device-served GET replies are byte-identical to host-served ones
     (same world, offload on vs CPU fallback, same op sequence);
   - pipeline traffic is port-scoped — frames for other ports reach
     their sockets untouched and never touch the table;
   - no stale reads: a GET never returns a value older than the last
     acknowledged SET for its key, including under the "partition" and
     "nic-flaky" fault plans (SETs update the device entry over the
     synchronous control queue before the response is pushed). *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

module Engine = Dk_sim.Engine
module Fault = Dk_fault.Fault
module Metrics = Dk_obs.Metrics
module Table = Dk_device.Table
module Prog = Dk_device.Prog
module Nic = Dk_device.Nic
module Setup = Dk_apps.Sim_setup
module Kv = Dk_apps.Kv
module Kv_app = Dk_apps.Kv_app
module Proto = Dk_apps.Proto
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Frame = Dk_wire.Frame
module Eth = Dk_wire.Eth
module Ipv4 = Dk_wire.Ipv4
module Udp = Dk_wire.Udp

let reset_world () =
  Metrics.reset Metrics.default;
  Dk_obs.Flight.clear Dk_obs.Flight.default

let named ~seed name =
  match Fault.named ~seed name with
  | Some p -> p
  | None -> Alcotest.failf "unknown named plan %S" name

(* ---------------- Table ---------------- *)

let test_table_basics () =
  reset_world ();
  let t = Table.create ~capacity:2 ~max_value:8 () in
  check_bool "miss on empty" true (Table.lookup t "a" = None);
  (match Table.insert t "a" "1" with
  | Ok () -> ()
  | Error `Rejected -> Alcotest.fail "insert rejected");
  check (Alcotest.option Alcotest.string) "hit" (Some "1") (Table.lookup t "a");
  check_bool "oversized value rejected" true
    (Table.insert t "big" "123456789" = Error `Rejected);
  let s = Table.stats t in
  check_int "lookups" 2 s.Table.lookups;
  check_int "hits" 1 s.Table.hits;
  check_int "misses" 1 s.Table.misses;
  check_int "rejected" 1 s.Table.rejected

let test_table_lru () =
  reset_world ();
  let t = Table.create ~capacity:2 ~max_value:8 () in
  let ins k v =
    match Table.insert t k v with
    | Ok () -> ()
    | Error `Rejected -> Alcotest.failf "insert %s rejected" k
  in
  ins "a" "1";
  ins "b" "2";
  (* touch a so b is the LRU victim *)
  ignore (Table.lookup t "a");
  ins "c" "3";
  check_bool "b evicted" true (Table.lookup t "b" = None);
  check_bool "a kept" true (Table.lookup t "a" = Some "1");
  check_bool "c kept" true (Table.lookup t "c" = Some "3");
  check_int "evictions" 1 (Table.stats t).Table.evictions

let test_table_host_managed () =
  reset_world ();
  let t = Table.create ~policy:Table.Host_managed ~capacity:1 ~max_value:8 () in
  (match Table.insert t "a" "1" with
  | Ok () -> ()
  | Error `Rejected -> Alcotest.fail "first insert rejected");
  check_bool "at capacity: rejected, not evicted" true
    (Table.insert t "b" "2" = Error `Rejected);
  check_bool "a still resident" true (Table.lookup t "a" = Some "1");
  check_int "no evictions" 0 (Table.stats t).Table.evictions

let test_table_update_invalidate () =
  reset_world ();
  let t = Table.create ~capacity:4 ~max_value:4 () in
  check_bool "update absent = false" false (Table.update t "a" "1");
  (match Table.insert t "a" "1" with
  | Ok () -> ()
  | Error `Rejected -> Alcotest.fail "insert rejected");
  check_bool "update present" true (Table.update t "a" "2");
  check_bool "updated value" true (Table.lookup t "a" = Some "2");
  (* an oversized update must not leave the stale value resident: it
     reports not-resident and drops the entry *)
  check_bool "oversized update not resident" false (Table.update t "a" "12345");
  check_bool "entry gone" true (Table.lookup t "a" = None);
  check_bool "invalidate absent = false" false (Table.invalidate t "a")

(* deterministic LRU: same op sequence, same evictions, twice *)
let test_table_deterministic () =
  reset_world ();
  let run () =
    let t = Table.create ~capacity:8 ~max_value:16 () in
    for i = 0 to 63 do
      (match Table.insert t (Printf.sprintf "k%d" (i mod 13)) "v" with
      | Ok () | Error `Rejected -> ());
      ignore (Table.lookup t (Printf.sprintf "k%d" (i mod 7)))
    done;
    let s = Table.stats t in
    (s.Table.hits, s.Table.evictions,
     List.sort compare
       (List.filter_map
          (fun i ->
            let k = Printf.sprintf "k%d" i in
            if Table.lookup t k <> None then Some k else None)
          (List.init 13 Fun.id)))
  in
  let a = run () and b = run () in
  check_bool "byte-identical replay" true (a = b)

(* ---------------- pipelines: cost model + semantics ---------------- *)

let lookup_none _ = None

let test_footprint_monotone () =
  let s1 = { Prog.guard = Prog.M_pred (Prog.Byte_eq (0, 'G')); act = Prog.Drop } in
  let s2 =
    {
      Prog.guard = Prog.M_eq (Prog.F_u16 Frame.dst_port_off, 6379L);
      act =
        Prog.Respond
          {
            Prog.r_key = Prog.K_rest 1;
            r_hit_prefix = "+";
            r_max_value = 64;
            r_on_miss = Prog.Pass;
          };
    }
  in
  let len = 100 in
  let f0 = Prog.pipeline_footprint [] len in
  let f1 = Prog.pipeline_footprint [ s1 ] len in
  let f2 = Prog.pipeline_footprint [ s1; s2 ] len in
  check_bool "empty = 0" true (f0 = 0);
  check_bool "append grows" true (f1 <= f2 && f0 <= f1);
  (* map footprint monotone under Chain too *)
  let m1 = Prog.Prepend "xx" and m2 = Prog.Append "yy" in
  check_bool "chain >= parts" true
    (Prog.map_footprint (Prog.Chain [ m1; m2 ]) len
     >= Prog.map_footprint m1 len)

let test_stage_semantics () =
  let lookup = function "hot" -> Some "value" | _ -> None in
  let v p s = Prog.eval_pipeline ~lookup p s in
  let stage guard act = { Prog.guard; act } in
  let g = Prog.M_pred (Prog.Byte_eq (0, 'G')) in
  (* Pass stops the pipeline *)
  check_bool "pass" true
    (v [ stage g Prog.Pass; stage (Prog.M_pred Prog.True) Prog.Drop ] "Gx"
     = Prog.Deliver "Gx");
  (* Drop *)
  check_bool "drop" true (v [ stage g Prog.Drop ] "Gx" = Prog.Dropped);
  (* unmatched guard falls through to delivery *)
  check_bool "no match" true (v [ stage g Prog.Drop ] "Sx" = Prog.Deliver "Sx");
  (* Rewrite continues the pipeline *)
  check_bool "rewrite then drop" true
    (v
       [
         stage g (Prog.Rewrite (Prog.Prepend "X"));
         stage (Prog.M_pred (Prog.Prefix "XG")) Prog.Drop;
       ]
       "Gx"
     = Prog.Dropped);
  (* Respond: hit, miss, oversized *)
  let rsp on_miss maxv =
    stage g
      (Prog.Respond
         {
           Prog.r_key = Prog.K_rest 1;
           r_hit_prefix = "+";
           r_max_value = maxv;
           r_on_miss = on_miss;
         })
  in
  check_bool "respond hit" true
    (v [ rsp Prog.Pass 64 ] "Ghot" = Prog.Responded "+value");
  check_bool "respond miss passes" true
    (v [ rsp Prog.Pass 64 ] "Gcold" = Prog.Deliver "Gcold");
  check_bool "respond miss can drop" true
    (v [ rsp Prog.Drop 64 ] "Gcold" = Prog.Dropped);
  check_bool "oversized hit is a miss" true
    (v [ rsp Prog.Pass 2 ] "Ghot" = Prog.Deliver "Ghot")

(* qcheck: arbitrary pipelines over arbitrary frames terminate, never
   raise, and a device reply always carries its hit prefix. *)
let gen_field =
  QCheck.Gen.(
    oneof
      [
        return Prog.F_len;
        map (fun o -> Prog.F_u8 o) (int_bound 64);
        map (fun o -> Prog.F_u16 o) (int_bound 64);
        map2 (fun o l -> Prog.F_hash (o, l)) (int_bound 64) (int_bound 64);
        map (fun o -> Prog.F_hash_rest o) (int_bound 64);
      ])

let gen_fmatch =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun f -> Prog.M_eq (f, 7L)) gen_field;
              map (fun f -> Prog.M_mod (f, 5, 2)) gen_field;
              return (Prog.M_pred (Prog.Byte_eq (0, 'G')));
              return (Prog.M_pred Prog.True);
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun l -> Prog.M_all l) (list_size (int_bound 3) (self (n / 2))));
              (1, map (fun l -> Prog.M_any l) (list_size (int_bound 3) (self (n / 2))));
              (1, map (fun m -> Prog.M_not m) (self (n / 2)));
            ]))

let rec gen_action n =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          return Prog.Pass;
          return Prog.Drop;
          map (fun s -> Prog.Rewrite (Prog.Prepend s)) (string_size (int_bound 4));
        ]
    in
    if n <= 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 1,
            map2
              (fun k miss ->
                Prog.Respond
                  {
                    Prog.r_key = (if k then Prog.K_rest 1 else Prog.K_bytes (2, 8));
                    r_hit_prefix = "+";
                    r_max_value = 32;
                    r_on_miss = miss;
                  })
              bool (gen_action (n - 1)) );
        ])

let gen_pipeline =
  QCheck.Gen.(
    list_size (int_bound 5)
      (map2 (fun g a -> { Prog.guard = g; act = a }) gen_fmatch (gen_action 2)))

let arb_pipeline_frame =
  QCheck.make
    QCheck.Gen.(pair gen_pipeline (string_size (int_bound 80)))

let prop_pipeline_total =
  QCheck.Test.make ~count:500 ~name:"pipeline eval total and in-range"
    arb_pipeline_frame (fun (p, s) ->
      let lookup k = if String.length k land 1 = 0 then Some "yes" else None in
      (match Prog.eval_pipeline ~lookup p s with
      | Prog.Responded r -> r.[0] = '+'
      | Prog.Deliver _ | Prog.Dropped -> true)
      && Prog.pipeline_footprint p (String.length s) >= 0)

let prop_footprint_monotone =
  QCheck.Test.make ~count:300 ~name:"pipeline footprint monotone under append"
    (QCheck.make QCheck.Gen.(pair gen_pipeline gen_pipeline))
    (fun (p, q) ->
      let len = 64 in
      Prog.pipeline_footprint (p @ q) len >= Prog.pipeline_footprint p len)

(* empty pipeline: eval is the identity delivery — the byte-identity
   anchor for offload-off worlds *)
let prop_empty_pipeline_identity =
  QCheck.Test.make ~count:100 ~name:"empty pipeline delivers unchanged"
    (QCheck.make QCheck.Gen.(string_size (int_bound 80)))
    (fun s -> Prog.eval_pipeline ~lookup:lookup_none [] s = Prog.Deliver s)

(* ---------------- end-to-end: the offloaded kv GET path -------------- *)

let client_port = 5555
let kv_port = 6379

type world = {
  sim : Demi.t Setup.world;
  srv : Kv_app.server;
  cqd : Types.qd;
}

let make_world ~programmable ?(populate = false) ?fault_plan () =
  let sim = Setup.world ~programmable ?fault_plan Demikernel in
  let demi_a = sim.client and demi_b = sim.server in
  let kv = Kv.create (Demi.manager demi_b) in
  let srv =
    match
      Kv_app.start_udp_offload_server ~demi:demi_b ~port:kv_port ~kv
        ~capacity:64 ~max_value:64 ~populate ()
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "server start failed"
  in
  (match Kv_app.set_udp_peer srv (Setup.endpoint sim.a client_port) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "set_udp_peer failed");
  let cqd =
    match Demi.socket demi_a `Udp with
    | Ok qd -> qd
    | Error _ -> Alcotest.fail "client socket failed"
  in
  (match Demi.bind demi_a cqd ~port:client_port with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "client bind failed");
  (match Demi.connect demi_a cqd ~dst:(Setup.endpoint sim.b kv_port) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "client connect failed");
  { sim; srv; cqd }

let rpc w req =
  let sga = Dk_mem.Sga.of_strings [ Proto.udp_request_string req ] in
  match Demi.blocking_push w.sim.client w.cqd sga with
  | Types.Pushed -> (
      match Demi.blocking_pop w.sim.client w.cqd with
      | Types.Popped resp ->
          let s =
            String.concat ""
              (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments resp))
          in
          Dk_mem.Sga.free resp;
          s
      | _ -> Alcotest.fail "rpc: pop failed")
  | _ -> Alcotest.fail "rpc: push failed"

let test_offload_get_path () =
  reset_world ();
  let w = make_world ~programmable:true () in
  check_bool "offloaded" true (Kv_app.server_offloaded w.srv);
  (* SET goes to the host *)
  check_string "set acked" "!" (rpc w (Proto.Set ("k1", "v1")));
  (* GET misses the cold table, host answers *)
  check_string "host get" "+v1" (rpc w (Proto.Get "k1"));
  let served_before = Kv_app.requests_served w.srv in
  (* populate the device entry, then the device answers alone *)
  (match Demi.offload_insert w.sim.server "k1" "v1" with
  | Ok () -> ()
  | Error `Rejected -> Alcotest.fail "insert rejected");
  check_string "device get" "+v1" (rpc w (Proto.Get "k1"));
  check_int "host never saw the hit" served_before
    (Kv_app.requests_served w.srv);
  let s =
    match Demi.offload_stats w.sim.server with
    | Some s -> s
    | None -> Alcotest.fail "no table"
  in
  check_int "device hit counted" 1 s.Table.hits;
  (* SET updates the device entry before acking: next GET is fresh *)
  check_string "set v2" "!" (rpc w (Proto.Set ("k1", "v2")));
  check_string "updated device get" "+v2" (rpc w (Proto.Get "k1"));
  check_int "still no host GET" (served_before + 1)
    (Kv_app.requests_served w.srv);
  (* DEL invalidates: GET falls back to the host and misses *)
  check_string "del" "x" (rpc w (Proto.Del "k1"));
  check_string "get after del" "-" (rpc w (Proto.Get "k1"))

(* device-served and CPU-fallback replies are byte-identical *)
let test_device_cpu_equality () =
  let script w =
    (* exercise every response shape incl. a device/CPU-resident key *)
    ignore (rpc w (Proto.Set ("k1", "v1")));
    (match Demi.offload_insert w.sim.server "k1" "v1" with
    | Ok () | Error `Rejected -> ());
    [
      rpc w (Proto.Get "k1");
      rpc w (Proto.Get "nope");
      rpc w (Proto.Set ("k1", "v2"));
      rpc w (Proto.Get "k1");
      rpc w (Proto.Del "k1");
      rpc w (Proto.Get "k1");
    ]
  in
  reset_world ();
  let on = script (make_world ~programmable:true ()) in
  reset_world ();
  let woff = make_world ~programmable:false () in
  check_bool "fallback world not offloaded" false (Kv_app.server_offloaded woff.srv);
  let off = script woff in
  check (Alcotest.list Alcotest.string) "byte-identical replies" on off

(* cross-traffic isolation: the pipeline is scoped to the kv port; a
   bystander UDP flow on another port is delivered verbatim and never
   touches the device table, even when its payload looks like a GET
   for a device-resident key. *)
let bystander_port = 7000

let test_cross_traffic_isolation () =
  reset_world ();
  let w = make_world ~programmable:true () in
  ignore (rpc w (Proto.Set ("k1", "v1")));
  (match Demi.offload_insert w.sim.server "k1" "v1" with
  | Ok () -> ()
  | Error `Rejected -> Alcotest.fail "insert rejected");
  (* a lookup through the kv port works (sanity: table is live) *)
  check_string "kv port hit" "+v1" (rpc w (Proto.Get "k1"));
  let lookups0 =
    match Demi.offload_stats w.sim.server with
    | Some s -> s.Table.lookups
    | None -> Alcotest.fail "no table"
  in
  (* bystander server on another port of the same host *)
  let bqd =
    match Demi.socket w.sim.server `Udp with
    | Ok qd -> qd
    | Error _ -> Alcotest.fail "bystander socket"
  in
  (match Demi.bind w.sim.server bqd ~port:bystander_port with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "bystander bind");
  let got = ref [] in
  let rec pump () =
    match Demi.pop w.sim.server bqd with
    | Error _ -> ()
    | Ok tok ->
        Demi.watch w.sim.server tok (function
          | Types.Popped sga ->
              got :=
                String.concat ""
                  (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga))
                :: !got;
              Dk_mem.Sga.free sga;
              pump ()
          | _ -> ())
  in
  pump ();
  (* second client socket talks to the bystander port *)
  let cqd2 =
    match Demi.socket w.sim.client `Udp with
    | Ok qd -> qd
    | Error _ -> Alcotest.fail "client socket 2"
  in
  (match Demi.connect w.sim.client cqd2 ~dst:(Setup.endpoint w.sim.b bystander_port) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "client connect 2");
  let send s =
    match Demi.blocking_push w.sim.client cqd2 (Dk_mem.Sga.of_strings [ s ]) with
    | Types.Pushed -> ()
    | _ -> Alcotest.fail "bystander push failed"
  in
  (* looks exactly like a GET for the resident key *)
  send "Gk1";
  send "hello";
  Engine.run w.sim.engine;
  check
    (Alcotest.list Alcotest.string)
    "delivered verbatim" [ "Gk1"; "hello" ] (List.rev !got);
  let lookups1 =
    match Demi.offload_stats w.sim.server with
    | Some s -> s.Table.lookups
    | None -> Alcotest.fail "no table"
  in
  check_int "table untouched by bystander traffic" lookups0 lookups1

(* ---------------- one program path: filters and GET stages ----------- *)

(* A bound UDP queue whose default peer is [peer]. *)
let udp_queue demi port peer =
  let qd = Result.get_ok (Demi.socket demi `Udp) in
  ignore (Demi.bind demi qd ~port);
  ignore (Demi.connect demi qd ~dst:peer);
  qd

(* Host b serves GETs on [kv_port] from its device table, which holds
   "k1" and "z1"; host a has a client queue connected to it. *)
let filter_world () =
  reset_world ();
  let w = Setup.world ~programmable:true Demikernel in
  let da = w.client and db = w.server in
  let sq = udp_queue db kv_port (Setup.endpoint w.a client_port) in
  check_bool "GET stage installed" true (Demi.offload_udp_get db sq () = Ok ());
  List.iter (fun k -> ignore (Demi.offload_insert db k "v")) [ "k1"; "z1" ];
  let cq = udp_queue da client_port (Setup.endpoint w.b kv_port) in
  let filtered () = (Nic.stats w.b.Setup.nic).Nic.rx_filtered in
  (w, sq, cq, filtered)

let popped = function
  | Types.Popped sga -> Dk_mem.Sga.to_string sga
  | _ -> Alcotest.fail "expected a reply"

(* The filter's stage runs before the GET stage on the same port: a
   GET for a resident key that fails the filter is dropped on the
   device, one that passes is answered from the table. *)
let test_filter_and_get_one_port () =
  let w, sq, cq, filtered = filter_world () in
  let sq = Result.get_ok (Demi.filter w.server sq (Prog.Prefix "Gk")) in
  check_bool "filter on the device" true (Demi.filter_offloaded w.server sq);
  let host = Result.get_ok (Demi.pop w.server sq) in
  let reply = Result.get_ok (Demi.pop w.client cq) in
  let f0 = filtered () in
  ignore (Demi.blocking_push w.client cq (Dk_mem.Sga.of_string "Gz1"));
  Engine.run w.engine;
  check_int "dropped on the device" (f0 + 1) (filtered ());
  check_bool "no reply" true (Demi.try_wait w.client reply = None);
  check_bool "nothing popped on the host" true (Demi.try_wait w.server host = None);
  ignore (Demi.blocking_push w.client cq (Dk_mem.Sga.of_string "Gk1"));
  check_string "answered from the table" "+v" (popped (Demi.wait w.client reply));
  check_bool "host still idle" true (Demi.try_wait w.server host = None)

(* A filter on another port leaves this port's GET stage answering. *)
let test_filter_scoped_to_port () =
  let w, _, cq, filtered = filter_world () in
  let other = udp_queue w.server bystander_port (Setup.endpoint w.a client_port) in
  let other = Result.get_ok (Demi.filter w.server other (Prog.Prefix "never")) in
  check_bool "filter on the device" true (Demi.filter_offloaded w.server other);
  let f0 = filtered () in
  ignore (Demi.blocking_push w.client cq (Dk_mem.Sga.of_string "Gz1"));
  check_string "answered from the table" "+v" (popped (Demi.blocking_pop w.client cq));
  check_int "nothing dropped" f0 (filtered ())

(* ---------------- the respond path under mutated frames ------------- *)

(* GET requests for resident keys, built by the writers, then mutated
   as test_net's rx-fuzz mutates frames, go straight into the server
   NIC. The device answers from its table only when the request passes
   the host stack's own header checks: never a frame with a flipped bit
   anywhere from the IPv4 header on (the IPv4 or the UDP checksum
   covers it), a cut frame or one whose IPv4 total length, IHL or UDP
   length lies (IPv4 checksum recomputed, so the length guards rather
   than the checksum see them), and never raising. An intact GET is
   answered, and the client's stack hands its socket the value. A GET
   the writers address to the server's MAC but another IPv4 address is
   one the host stack drops as not for it: the device never answers
   it, and it reaches the host, which counts it [not_for_us]. *)

type respond_lie = Total_length | Ihl | Udp_length | Ethertype

type respond_mutation =
  | Intact
  | Flip of int (* bit index, modulo the frame's length in bits *)
  | Cut of int (* index into the frame's header boundaries *)
  | Lie of respond_lie * int (* distance from the true value, >= 1 *)
  | Elsewhere of int (* IPv4 destination's distance from the server's *)

let resident = [| ("k0", "zero"); ("k1", "one"); ("key2", ""); ("k3", "3333") |]

let respond_case =
  let open QCheck.Gen in
  let mutation =
    frequency
      [
        (2, return Intact);
        (4, map (fun i -> Flip i) nat);
        (2, map (fun i -> Cut i) nat);
        ( 2,
          map2
            (fun f d -> Lie (f, d))
            (oneofl [ Total_length; Ihl; Udp_length; Ethertype ])
            (1 -- 0xfffe) );
        (1, map (fun d -> Elsewhere d) (1 -- 0xfffe));
      ]
  in
  QCheck.make
    ~print:(fun frames ->
      String.concat "; "
        (List.map
           (fun (k, m) ->
             fst resident.(k) ^ " "
             ^
             match m with
             | Intact -> "intact"
             | Flip i -> Printf.sprintf "flip %d" i
             | Cut i -> Printf.sprintf "cut %d" i
             | Lie (f, d) ->
                 Printf.sprintf "%s+%d"
                   (match f with
                   | Total_length -> "total"
                   | Ihl -> "ihl"
                   | Udp_length -> "ulen"
                   | Ethertype -> "ethertype")
                   d
             | Elsewhere d -> Printf.sprintf "ip+%d" d)
           frames))
    (list_size (1 -- 6) (pair (0 -- (Array.length resident - 1)) mutation))

let get_frame ~src_mac ~dst_mac ~src_ip ~dst_ip key =
  let payload = Proto.udp_request_string (Proto.Get key) in
  let n = String.length payload in
  let b = Bytes.create (Frame.udp_payload_off + n) in
  Bytes.blit_string payload 0 b Frame.udp_payload_off n;
  Udp.write b ~off:Frame.l4_off ~src_ip ~dst_ip ~src_port:client_port
    ~dst_port:kv_port ~payload_len:n;
  Ipv4.write b ~off:Frame.ip_off ~src:src_ip ~dst:dst_ip ~proto:Ipv4.udp
    ~ttl:64 ~ident:7 ~payload_len:(Udp.header_size + n);
  Eth.write b ~dst:dst_mac ~src:src_mac Eth.ipv4;
  b

let fix_ipv4_checksum b =
  Bytes.set_uint16_be b (Frame.ip_off + 10) 0;
  Bytes.set_uint16_be b (Frame.ip_off + 10)
    (Dk_util.Checksum.compute b Frame.ip_off Ipv4.header_size)

(* Apply [m]; [true] when the device must not answer the result. A
   readdressed GET is built whole rather than mutated. *)
let mutate frame m =
  let len = Bytes.length frame in
  match m with
  | Intact | Elsewhere _ -> (frame, false)
  | Flip i ->
      let bit = i mod (8 * len) in
      let byte = bit / 8 in
      Bytes.set frame byte
        (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl (bit mod 8))));
      (frame, byte >= Frame.ip_off)
  | Cut i ->
      let cuts =
        [ 0; Frame.ip_off - 1; Frame.ip_off; Frame.l4_off - 1; Frame.l4_off;
          Frame.udp_payload_off - 1; Frame.udp_payload_off; len - 1 ]
      in
      (Bytes.sub frame 0 (List.nth cuts (i mod List.length cuts)), true)
  | Lie (Total_length, d) ->
      let at = Frame.ip_len_off in
      Bytes.set_uint16_be frame at ((Bytes.get_uint16_be frame at + d) land 0xffff);
      fix_ipv4_checksum frame;
      (frame, true)
  | Lie (Ihl, d) ->
      Bytes.set_uint8 frame Frame.ip_off (0x40 lor ((5 + d) land 0xf));
      fix_ipv4_checksum frame;
      (frame, d land 0xf <> 0)
  | Lie (Udp_length, d) ->
      let at = Frame.udp_len_off in
      Bytes.set_uint16_be frame at ((Bytes.get_uint16_be frame at + d) land 0xffff);
      (frame, true)
  | Lie (Ethertype, d) ->
      Bytes.set_uint16_be frame Frame.ethertype_off ((Eth.ipv4 + d) land 0xffff);
      (frame, true)

let prop_respond_fuzz =
  QCheck.Test.make ~count:200
    ~name:"device answers only intact requests, whatever the frame" respond_case
    (fun frames ->
      let w, _, cq, _ = filter_world () in
      Array.iter
        (fun (k, v) ->
          check_bool "resident" true (Demi.offload_insert w.server k v = Ok ()))
        resident;
      let nic = w.b.Setup.nic in
      let src_mac = Nic.mac w.a.Setup.nic and dst_mac = Nic.mac nic in
      let src_ip = w.a.Setup.ip and dst_ip = w.b.Setup.ip in
      let reply = ref (Result.get_ok (Demi.pop w.client cq)) in
      let not_for_us () = (Dk_net.Stack.stats w.b.Setup.stack).not_for_us in
      let feed (k, m) =
        let key, value = resident.(k) in
        let dst_ip =
          match m with
          | Elsewhere d -> (dst_ip + d) land 0xffff_ffff
          | _ -> dst_ip
        in
        let frame, unanswerable =
          mutate (get_frame ~src_mac ~dst_mac ~src_ip ~dst_ip key) m
        in
        let dropped = not_for_us () in
        let responded = (Nic.stats nic).Nic.rx_responded in
        Nic.receive nic (Bytes.to_string frame);
        Engine.run w.engine;
        let answered = (Nic.stats nic).Nic.rx_responded - responded in
        let got =
          match Demi.try_wait w.client !reply with
          | None -> None
          | Some r ->
              reply := Result.get_ok (Demi.pop w.client cq);
              Some (popped r)
        in
        match m with
        | Intact -> answered = 1 && got = Some ("+" ^ value)
        | Elsewhere _ ->
            answered = 0 && got = None && not_for_us () = dropped + 1
        | _ -> (not unanswerable) || (answered = 0 && got = None)
      in
      List.for_all feed frames)

(* ---------------- no stale reads under fault plans ------------------ *)

(* Open-loop: fire alternating SET/GET on a fixed cadence, drain, and
   check every Value reply against the SET ack state at the moment the
   matching GET was pushed. Replies on one UDP flow arrive FIFO (the
   fabric reorders nothing, it only drops), so a Value reply pairs with
   the oldest outstanding GET; if that GET's own reply was dropped the
   pairing is conservative (an older, smaller bound), never unsound. *)

let ver_value v = Printf.sprintf "v%06d" v

let ver_of s =
  (* "+v000123" -> 123 *)
  if String.length s >= 2 && s.[0] = '+' && s.[1] = 'v' then
    int_of_string (String.sub s 2 (String.length s - 2))
  else Alcotest.failf "unparseable value reply %S" s

let run_no_stale plan_name =
  reset_world ();
  let w =
    make_world ~programmable:true ~fault_plan:(named ~seed:42L plan_name) ()
  in
  check_bool "offloaded" true (Kv_app.server_offloaded w.srv);
  let engine = w.sim.engine in
  (* seed version 1 on host and device before faults arm *)
  check_string "seed set" "!" (rpc w (Proto.Set ("k", ver_value 1)));
  (match Demi.offload_insert w.sim.server "k" (ver_value 1) with
  | Ok () -> ()
  | Error `Rejected -> Alcotest.fail "seed insert rejected");
  let acked = ref 1 in
  let unacked_sets = Queue.create () in
  let pending_gets = Queue.create () in
  let value_checks = ref 0 in
  let rec pump () =
    match Demi.pop w.sim.client w.cqd with
    | Error _ -> ()
    | Ok tok ->
        Demi.watch w.sim.client tok (function
          | Types.Popped sga ->
              let s =
                String.concat ""
                  (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga))
              in
              Dk_mem.Sga.free sga;
              (if s = "!" then (
                 if not (Queue.is_empty unacked_sets) then
                   acked := max !acked (Queue.pop unacked_sets))
               else
                 let seen = ver_of s in
                 let bound =
                   if Queue.is_empty pending_gets then !acked
                   else Queue.pop pending_gets
                 in
                 incr value_checks;
                 if seen < bound then
                   Alcotest.failf
                     "stale read under %s: saw v%d after v%d was acked"
                     plan_name seen bound);
              pump ()
          | Types.Failed _ -> ()
          | _ -> ())
  in
  pump ();
  let next_ver = ref 1 in
  let push req =
    match Demi.push w.sim.client w.cqd (Dk_mem.Sga.of_strings [ Proto.udp_request_string req ]) with
    | Ok tok -> Demi.watch w.sim.client tok (fun _ -> ())
    | Error _ -> ()
  in
  (* 300 ops, 5 us apart: spans the 100-900 us flaky window and crosses
     the 200 us partition onset *)
  let t_base = Engine.now engine in
  for i = 0 to 299 do
    let at = Int64.add t_base (Int64.of_int (5_000 * (i + 1))) in
    let (_ : Engine.timer) =
      Engine.at engine at (fun () ->
          if i mod 2 = 0 then begin
            incr next_ver;
            let v = !next_ver in
            Queue.push v unacked_sets;
            push (Proto.Set ("k", ver_value v))
          end
          else begin
            Queue.push !acked pending_gets;
            push (Proto.Get "k")
          end)
    in
    ()
  done;
  Engine.run engine;
  check_bool "some GETs were answered" true (!value_checks > 0);
  (* the device actually served hits along the way *)
  match Demi.offload_stats w.sim.server with
  | Some s -> check_bool "device hits happened" true (s.Table.hits > 0)
  | None -> Alcotest.fail "no table"

let test_no_stale_partition () = run_no_stale "partition"
let test_no_stale_nic_flaky () = run_no_stale "nic-flaky"

(* ---------------- suite ---------------- *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "offload"
    [
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "lru" `Quick test_table_lru;
          Alcotest.test_case "host-managed" `Quick test_table_host_managed;
          Alcotest.test_case "update/invalidate" `Quick
            test_table_update_invalidate;
          Alcotest.test_case "deterministic" `Quick test_table_deterministic;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "footprint monotone" `Quick test_footprint_monotone;
          Alcotest.test_case "stage semantics" `Quick test_stage_semantics;
        ] );
      qsuite "pipeline-qcheck"
        [
          prop_pipeline_total;
          prop_footprint_monotone;
          prop_empty_pipeline_identity;
        ];
      ( "kv-offload",
        [
          Alcotest.test_case "device GET path" `Quick test_offload_get_path;
          Alcotest.test_case "device = CPU fallback" `Quick
            test_device_cpu_equality;
          Alcotest.test_case "cross-traffic isolation" `Quick
            test_cross_traffic_isolation;
          Alcotest.test_case "filter and GET on one port" `Quick
            test_filter_and_get_one_port;
          Alcotest.test_case "filter scoped to its port" `Quick
            test_filter_scoped_to_port;
        ] );
      ( "respond-fuzz",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1009 |])
            prop_respond_fuzz;
        ] );
      ( "no-stale",
        [
          Alcotest.test_case "partition" `Quick test_no_stale_partition;
          Alcotest.test_case "nic-flaky" `Quick test_no_stale_nic_flaky;
        ] );
    ]
