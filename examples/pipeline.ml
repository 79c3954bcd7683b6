(* Queue composition and device offload (§4.2–4.3).

   Builds the paper's "complex I/O processing pipeline": a UDP queue on
   a programmable NIC ([Sim_setup.world ~programmable:true]), filtered by a verified program (offloaded to the
   device — dropped datagrams never touch the CPU), then mapped and
   sorted on the host.

   Run with:  dune exec examples/pipeline.exe *)

module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Setup = Dk_apps.Sim_setup
module Sga = Dk_mem.Sga
module Prog = Dk_device.Prog

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

let () =
  (* programmable NICs: Table 1's right column *)
  let w = Setup.world ~programmable:true Demikernel in

  (* Receiver: udp queue |> filter (on device!) |> map |> sort. *)
  let udp = Result.get_ok (Demi.socket w.server `Udp) in
  must (Demi.bind w.server udp ~port:9000);
  let filtered =
    Result.get_ok (Demi.filter w.server udp (Prog.Prefix "EVT:"))
  in
  Format.printf "filter offloaded to NIC: %b@."
    (Demi.filter_offloaded w.server filtered);
  let mapped =
    Result.get_ok (Demi.map w.server filtered (Prog.Chain [ Prog.Prepend "[" ; Prog.Append "]" ]))
  in
  (* highest priority = shortest message *)
  let sorted =
    Result.get_ok
      (Demi.sort w.server mapped (fun a b -> Sga.length a < Sga.length b))
  in

  (* Sender: a burst of matching and non-matching datagrams. *)
  let out = Result.get_ok (Demi.socket w.client `Udp) in
  must (Demi.connect w.client out ~dst:(Setup.endpoint w.b 9000));
  List.iter
    (fun msg -> ignore (Demi.blocking_push w.client out (Sga.of_string msg)))
    [
      "EVT:medium event";
      "noise that the NIC drops";
      "EVT:tiny";
      "more noise";
      "EVT:quite a long event indeed";
    ];

  (* Let the burst arrive, then drain: 3 events survive the filter and
     pop in priority (size) order. *)
  Dk_sim.Engine.run_for w.engine 1_000_000L;
  for i = 1 to 3 do
    match Demi.blocking_pop w.server sorted with
    | Types.Popped sga -> Format.printf "pop %d: %S@." i (Sga.to_string sga)
    | r -> Format.printf "pop %d failed: %a@." i Types.pp_op_result r
  done;
  let stats = Dk_device.Nic.stats w.b.Setup.nic in
  Format.printf "NIC dropped %d frames on-device (zero CPU cost)@."
    stats.Dk_device.Nic.rx_filtered;
  must (Demi.close w.client out);
  must (Demi.close w.server sorted)
