(* Blocking inside registered callbacks. A callback scheduled with
   [Engine.at] runs inside a poll iteration of the engine: re-entering
   the engine ([Demi.wait] steps it) or sleeping the host thread
   ([Unix.sleep]) stalls every queue the shard owns. Reported at the
   closure, where the callback is registered. *)

let arm engine demi tok =
  ignore
    (Dk_sim.Engine.at engine 10L (fun () -> (* FLAG poll-blocking *)
         ignore (Demi.wait demi tok)))

(* A re-armable handle's thunk runs from the engine the same way. *)
let make_timer engine demi tok =
  Dk_sim.Engine.timer engine (fun () -> (* FLAG poll-blocking *)
      ignore (Demi.wait demi tok))

let spawn_worker sched =
  Fiber.spawn sched (fun () -> (* FLAG poll-blocking *)
      Unix.sleep 1)
