(* Quickstart: the Demikernel interface in ~40 lines.

   Two simulated hosts on a switched fabric, each with a kernel-bypass
   NIC, a user-level stack and a Demikernel libOS — one
   [Sim_setup.world Demikernel] call builds them. The server echoes;
   the client uses the Figure-3 calls: socket / bind / listen / accept
   (control path), push / pop / wait (data path).

   Run with:  dune exec examples/quickstart.exe *)

module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Setup = Dk_apps.Sim_setup
module Sga = Dk_mem.Sga

let () =
  (* Control path: build the simulated datacenter. *)
  let w = Setup.world Demikernel in

  (* Server: listen and echo every message back. *)
  (match Dk_apps.Echo.start_demi_server ~demi:w.server ~port:7 with
  | Ok () -> ()
  | Error e -> failwith (Types.error_to_string e));

  (* Client: connect, push a scatter-gather message, pop the echo. *)
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  (match Demi.connect w.client qd ~dst:(Setup.endpoint w.b 7) with
  | Ok () -> print_endline "connected (control path, through the handshake)"
  | Error e -> failwith (Types.error_to_string e));

  let message = Sga.of_strings [ "hello, "; "demikernel"; "!" ] in
  let t0 = Dk_sim.Engine.now w.engine in
  (match Demi.blocking_push w.client qd message with
  | Types.Pushed -> ()
  | r -> Format.kasprintf failwith "push failed: %a" Types.pp_op_result r);
  (match Demi.blocking_pop w.client qd with
  | Types.Popped reply ->
      let rtt = Int64.sub (Dk_sim.Engine.now w.engine) t0 in
      Format.printf "echoed %d bytes in %d segments — RTT %Ld ns@."
        (Sga.length reply) (Sga.segment_count reply) rtt;
      Format.printf "payload: %S@." (Sga.to_string reply)
  | r -> Format.kasprintf failwith "pop failed: %a" Types.pp_op_result r);
  (match Demi.close w.client qd with
  | Ok () -> ()
  | Error e -> failwith (Types.error_to_string e));
  print_endline "done."
