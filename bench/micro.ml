(* Real wall-clock micro-benchmarks (Bechamel) of the library's hot
   paths. Unlike E1-E10 — which report *virtual* (cost-model) time —
   these measure actual OCaml execution speed of the reproduction
   itself: how fast the simulated stack, queues and allocators run on
   the host machine. *)

open Bechamel
open Toolkit
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Setup = Dk_apps.Sim_setup
module Sga = Dk_mem.Sga

let memq_roundtrip () =
  let engine = Dk_sim.Engine.create () in
  let demi = Demi.create ~engine ~cost:Dk_sim.Cost.default () in
  let qd = Demi.queue demi in
  let sga = Sga.of_string "payload" in
  Staged.stage (fun () ->
      ignore (Demi.blocking_push demi qd sga);
      match Demi.blocking_pop demi qd with
      | Types.Popped _ -> ()
      | _ -> assert false)

let sga_alloc_free () =
  let mgr = Dk_mem.Manager.create () in
  Staged.stage (fun () ->
      let b = Dk_mem.Manager.alloc_exn mgr 1024 in
      Dk_mem.Buffer.free b)

let buddy_alloc_free () =
  let region = Dk_mem.Region.create ~id:0 ~size:(1 lsl 20) in
  let arena = Dk_mem.Arena.create region in
  Staged.stage (fun () ->
      match Dk_mem.Arena.alloc arena 4096 with
      | Some b -> Dk_mem.Arena.free arena b
      | None -> assert false)

let framing_roundtrip () =
  let segs = [ "G"; "key-00000042"; String.make 256 'v' ] in
  Staged.stage (fun () ->
      let enc = Dk_net.Framing.encode segs in
      let d = Dk_net.Framing.create () in
      Dk_net.Framing.feed d enc;
      match Dk_net.Framing.next d with Some _ -> () | None -> assert false)

let checksum_1500 () =
  let buf = Bytes.make 1500 '\x5a' in
  Staged.stage (fun () -> ignore (Dk_util.Checksum.compute buf 0 1500))

let crc32_4k () =
  let buf = Bytes.make 4096 '\x7e' in
  Staged.stage (fun () -> ignore (Dk_util.Crc32.digest buf 0 4096))

let engine_event () =
  let engine = Dk_sim.Engine.create () in
  Staged.stage (fun () ->
      ignore (Dk_sim.Engine.after engine 10L (fun () -> ()));
      ignore (Dk_sim.Engine.step engine))

let tcp_echo_rtt () =
  (* full simulated stack: eth/arp/ip/tcp both ways, per run *)
  let w = Setup.world Demikernel in
  (match Dk_apps.Echo.start_demi_server ~demi:w.server ~port:7 with
  | Ok () -> ()
  | Error _ -> assert false);
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  (match Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7) with
  | Ok () -> ()
  | Error _ -> assert false);
  let sga = Sga.of_string (String.make 64 'x') in
  Staged.stage (fun () ->
      ignore (Demi.blocking_push w.client qd sga);
      match Demi.blocking_pop w.client qd with
      | Types.Popped _ -> ()
      | _ -> assert false)

let kv_set_get () =
  let kv = Dk_apps.Kv.create (Dk_mem.Manager.create ()) in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      let key = "key-" ^ string_of_int (!i land 0xff) in
      ignore (Dk_apps.Kv.set kv key "value-bytes");
      ignore (Dk_apps.Kv.get kv key))

let histogram_record () =
  let h = Dk_sim.Histogram.create () in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      Dk_sim.Histogram.record h (Int64.of_int (!i * 97)))

let tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
    [
      Test.make ~name:"memq push+pop" (memq_roundtrip ());
      Test.make ~name:"sga alloc+free (manager)" (sga_alloc_free ());
      Test.make ~name:"buddy alloc+free" (buddy_alloc_free ());
      Test.make ~name:"framing encode+decode" (framing_roundtrip ());
      Test.make ~name:"inet checksum 1500B" (checksum_1500 ());
      Test.make ~name:"crc32 4KB" (crc32_4k ());
      Test.make ~name:"engine schedule+step" (engine_event ());
      Test.make ~name:"tcp echo RTT (full stack)" (tcp_echo_rtt ());
      Test.make ~name:"kv set+get" (kv_set_get ());
      Test.make ~name:"histogram record" (histogram_record ());
    ]

(* ---- wait_any scaling ----

   The seed's wait_any scanned every argument token per poll iteration;
   the readiness path (persistent wait set + ready FIFO) dequeues each
   completion in O(1). Serve [k] completions among [n] outstanding pop
   tokens, completions placed at the far end of the scan order — the
   representative worst case, where the scanner walks the whole pending
   set per event. *)

let wait_scaling_case n =
  let k = min n 500 in
  let mk () =
    let engine = Dk_sim.Engine.create () in
    let demi = Demi.create ~engine ~cost:Dk_sim.Cost.default () in
    let qds = Array.init n (fun _ -> Demi.queue demi) in
    let toks = Array.map (fun qd -> Result.get_ok (Demi.pop demi qd)) qds in
    let sga = Sga.of_string "x" in
    let push i =
      let ptok = Result.get_ok (Demi.push demi qds.(i) sga) in
      ignore (Demi.wait demi ptok)
    in
    (demi, toks, push)
  in
  (* seed algorithm: linear redeem scan over the argument tokens *)
  let demi, toks, push = mk () in
  let t0 = Unix.gettimeofday () in
  for j = 0 to k - 1 do
    push (n - 1 - j);
    let found = ref false in
    let i = ref 0 in
    while not !found do
      (match Demi.try_wait demi toks.(!i) with
      | Some _ -> found := true
      | None -> ());
      incr i
    done
  done;
  let scan_s = Unix.gettimeofday () -. t0 in
  (* readiness path: register once, dequeue completions in O(1) *)
  let demi, toks, push = mk () in
  let t0 = Unix.gettimeofday () in
  let ws = Demi.waitset demi in
  Array.iter (fun tok -> Demi.waitset_add demi ws tok) toks;
  for j = 0 to k - 1 do
    push (n - 1 - j);
    match Demi.wait_next demi ws with Some _ -> () | None -> assert false
  done;
  let ready_s = Unix.gettimeofday () -. t0 in
  let per ns = ns /. float_of_int k *. 1e9 in
  (per scan_s, per ready_s)

let wait_scaling () =
  print_newline ();
  Printf.printf "wait_any scaling (wall clock, worst-case scan order):\n";
  Printf.printf "%-14s %14s %14s %10s\n" "outstanding" "scan ns/ev"
    "ready ns/ev" "speedup";
  List.iter
    (fun n ->
      let scan, ready = wait_scaling_case n in
      Printf.printf "%-14d %14.0f %14.0f %9.1fx\n" n scan ready (scan /. ready))
    [ 10; 100; 1000; 10000 ]

let run () =
  Report.header ~id:"MICRO: host-execution benchmarks" ~source:"bechamel"
    ~claim:
      "Wall-clock cost of the reproduction's own hot paths (not virtual\n\
       time): ns per operation on this machine.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-42s %12.1f ns/op\n" name est)
    (List.sort compare !rows);
  wait_scaling ()
