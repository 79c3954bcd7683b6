(* E8 — §4.2–4.3: filter/map offload. A sender blasts datagrams at a
   receiver whose queue filter keeps only a fraction; with a
   programmable NIC the filter runs on-device (dropped frames cost the
   host nothing), with a raw NIC the libOS evaluates it on the CPU per
   message. We sweep selectivity and report host CPU time per
   *delivered* message. *)

module Setup = Dk_apps.Sim_setup
module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Prog = Dk_device.Prog
module Sga = Dk_mem.Sga
module Event_loop = Dk_sched.Event_loop

let total = 400
let payload_size = 200

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

(* Send [total] datagrams, a fraction [keep] of which match the filter.
   Returns (virtual ns consumed end-to-end, frames filtered on device,
   messages delivered). *)
let run_case ~programmable ~keep =
  let w = Setup.world ~programmable Demikernel in
  let engine = w.engine in
  let sqd = Result.get_ok (Demi.socket w.server `Udp) in
  must (Demi.bind w.server sqd ~port:9);
  let fq = Result.get_ok (Demi.filter w.server sqd (Prog.Prefix "EVT:")) in
  let delivered = ref 0 in
  Event_loop.on_message (Event_loop.create w.server) fq (fun sga ->
      Sga.free sga;
      incr delivered);
  let cqd = Result.get_ok (Demi.socket w.client `Udp) in
  must (Demi.connect w.client cqd ~dst:(Setup.endpoint w.b 9));
  let rng = Dk_sim.Rng.create 31L in
  let expected = ref 0 in
  let t0 = Engine.now engine in
  for _ = 1 to total do
    let matches = Dk_sim.Rng.bool rng keep in
    if matches then incr expected;
    let prefix = if matches then "EVT:" else "IGN:" in
    let body = prefix ^ String.make (payload_size - 4) 'z' in
    ignore (Demi.blocking_push w.client cqd (Sga.of_string body))
  done;
  ignore (Engine.run_until engine (fun () -> !delivered >= !expected));
  Engine.run engine;
  let elapsed = Int64.sub (Engine.now engine) t0 in
  must (Demi.close w.client cqd);
  let nic_stats = Dk_device.Nic.stats w.b.Setup.nic in
  (elapsed, nic_stats.Dk_device.Nic.rx_filtered, !delivered)

let run () =
  Report.header ~id:"E8: filter offload" ~source:"§4.2-4.3"
    ~claim:
      "Offloaded filters drop traffic before it costs host cycles; the CPU\n\
       fallback pays per evaluated message. The lower the selectivity, the\n\
       bigger the offload win.";
  let widths = [ 12; 14; 14; 12; 14 ] in
  let rows =
    List.map
      (fun keep ->
        let cpu_ns, _, cpu_del = run_case ~programmable:false ~keep in
        let dev_ns, dev_filtered, dev_del = run_case ~programmable:true ~keep in
        [
          Printf.sprintf "%.0f%%" (keep *. 100.0);
          Printf.sprintf "%Ld" (Int64.div cpu_ns (Int64.of_int (max 1 cpu_del)));
          Printf.sprintf "%Ld" (Int64.div dev_ns (Int64.of_int (max 1 dev_del)));
          string_of_int dev_filtered;
          Report.ratio
            (Int64.div cpu_ns (Int64.of_int (max 1 cpu_del)))
            (Int64.div dev_ns (Int64.of_int (max 1 dev_del)));
        ])
      [ 0.9; 0.5; 0.1 ]
  in
  Report.table widths
    [ "keep rate"; "cpu ns/msg"; "dev ns/msg"; "dev drops"; "win" ]
    rows;
  Report.footnote "%d datagrams of %d B per cell.\n" total payload_size
