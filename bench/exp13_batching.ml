(* E13 — tx doorbell coalescing. Each MMIO doorbell write costs
   [Cost.pcie_doorbell] whether it announces one descriptor or sixteen;
   a submission stage that lets descriptors queued within one poll
   quantum share a ring amortizes that cost across the batch (the
   mTCP/batching lineage the paper's §3 discusses). We blast fixed-size
   UDP batches through [Demi.push_batch] across coalescing windows and
   report doorbells per operation and delivered-batch latency. *)

module Setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Sga = Dk_mem.Sga
module H = Dk_sim.Histogram
module Event_loop = Dk_sched.Event_loop

let batch = 16
let rounds = 150
let payload = String.make 64 'b'

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

(* One window setting: [rounds] batches of [batch] datagrams from a to
   b, each round timed from first push to last delivery. Returns
   (doorbell rings, ops, per-op latency histogram). *)
let run_case window =
  let w = Setup.world Demikernel in
  let engine = w.engine in
  let sqd = Result.get_ok (Demi.socket w.server `Udp) in
  must (Demi.bind w.server sqd ~port:9);
  let delivered = ref 0 in
  Event_loop.on_message (Event_loop.create w.server) sqd (fun sga ->
      Sga.free sga;
      incr delivered);
  let cqd = Result.get_ok (Demi.socket w.client `Udp) in
  must (Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 9));
  Demi.set_batch_window w.client window;
  let h = H.create () in
  let doorbells0 = Dk_device.Nic.tx_doorbells w.a.Setup.nic in
  let target = ref 0 in
  for _ = 1 to rounds do
    let t0 = Engine.now engine in
    let sgas = List.init batch (fun _ -> Sga.of_string payload) in
    let toks = must (Demi.push_batch w.client cqd sgas) in
    (match Demi.wait_all w.client toks with
    | Some _ -> ()
    | None -> failwith "push batch deadlocked");
    target := !target + batch;
    if not (Engine.run_until engine (fun () -> !delivered >= !target)) then
      failwith "batch never delivered";
    let elapsed = Int64.sub (Engine.now engine) t0 in
    H.record h (Int64.div elapsed (Int64.of_int batch))
  done;
  Engine.run engine;
  must (Demi.close w.client cqd);
  let rings = Dk_device.Nic.tx_doorbells w.a.Setup.nic - doorbells0 in
  (rings, rounds * batch, h)

let run () =
  Report.header ~id:"E13: tx doorbell coalescing" ~source:"§3 (batching)"
    ~claim:
      "An MMIO doorbell costs the same for 1 or 16 descriptors; a submission\n\
       stage that coalesces rings within a window amortizes it across the\n\
       batch without hurting delivered latency.";
  let widths = [ 11; 11; 13; 10; 10; 10 ] in
  let rows =
    List.map
      (fun window ->
        let rings, ops, h = run_case window in
        [
          Printf.sprintf "%Ld" window;
          string_of_int rings;
          Printf.sprintf "%.3f" (float_of_int rings /. float_of_int ops);
          Report.ns (H.quantile h 0.5);
          Report.ns (H.quantile h 0.99);
          Printf.sprintf "%.1fx"
            (float_of_int ops /. float_of_int (max 1 rings));
        ])
      [ 0L; 200L; 1000L; 5000L ]
  in
  Report.table widths
    [ "window(ns)"; "doorbells"; "doorbells/op"; "p50(ns)"; "p99(ns)"; "amort" ]
    rows;
  Report.footnote
    "%d rounds of %d-datagram batches (%d B each); per-op latency is the\n\
     round's first-push-to-last-delivery time divided by the batch size.\n"
    rounds batch (String.length payload)
