(* A memcached-style server written against the libevent-flavoured
   adapter of §4.4: no explicit pops, no epoll — register callbacks per
   queue and the loop delivers whole messages with no wasted wakeups.
   Client and server hosts come from one [Sim_setup.world Demikernel]
   call.

   Run with:  dune exec examples/event_server.exe *)

module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Setup = Dk_apps.Sim_setup
module Event_loop = Dk_sched.Event_loop
module Proto = Dk_apps.Proto
module Kv = Dk_apps.Kv
module Sga = Dk_mem.Sga

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

let () =
  let w = Setup.world Demikernel in

  (* --- server: pure callbacks --- *)
  let kv = Kv.create (Demi.manager w.server) in
  let loop = Event_loop.create w.server in
  let lqd = Result.get_ok (Demi.socket w.server `Tcp) in
  must (Demi.bind w.server lqd ~port:11211);
  must (Demi.listen w.server lqd);
  let served = ref 0 in
  Event_loop.on_accept loop lqd (fun conn ->
      Format.printf "server: accepted qd=%d@." conn;
      Event_loop.on_message loop conn (fun sga ->
          incr served;
          match Proto.request_of_sga sga with
          | Some req -> Event_loop.send loop conn (Kv.apply_zero_copy kv req)
          | None -> ());
      Event_loop.on_close loop conn (fun _ ->
          Format.printf "server: connection closed@."));

  (* --- client: ordinary blocking calls --- *)
  let qd = Result.get_ok (Demi.socket w.client `Tcp) in
  must (Demi.connect w.client qd ~dst:(Setup.endpoint w.b 11211));
  let rpc req =
    ignore (Demi.blocking_push w.client qd (Proto.request_sga req));
    match Demi.blocking_pop w.client qd with
    | Types.Popped sga -> Proto.response_of_sga sga
    | _ -> None
  in
  ignore (rpc (Proto.Set ("lang", "ocaml")));
  ignore (rpc (Proto.Set ("paper", "hotos19")));
  (match rpc (Proto.Get "lang") with
  | Some (Proto.Value v) -> Format.printf "GET lang -> %S@." v
  | _ -> print_endline "GET failed");
  (match rpc (Proto.Del "lang") with
  | Some Proto.Deleted -> print_endline "DEL lang -> deleted"
  | _ -> print_endline "DEL failed");
  (match rpc (Proto.Get "lang") with
  | Some Proto.Not_found -> print_endline "GET lang -> (not found)"
  | _ -> print_endline "unexpected");
  must (Demi.close w.client qd);
  Format.printf "server handled %d requests via event callbacks@." !served
