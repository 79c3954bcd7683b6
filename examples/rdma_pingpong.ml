(* RDMA ping-pong (Table 1, middle column).

   The RDMA device gives reliable delivery but demands registered
   memory and posted receive buffers; the Demikernel libOS supplies
   both invisibly: buffers come from pre-registered regions (§4.5) and
   the queue keeps the receive ring replenished with credit-based flow
   control. The application below never registers memory, never posts
   a receive, and never sees an RNR.

   Run with:  dune exec examples/rdma_pingpong.exe *)

module Demi = Demikernel.Demi
module Types = Demikernel.Types
module Engine = Dk_sim.Engine
module Rdma = Dk_device.Rdma
module Sga = Dk_mem.Sga
module Event_loop = Dk_sched.Event_loop

let must = function
  | Ok v -> v
  | Error e -> failwith (Types.error_to_string e)

let () =
  let engine = Engine.create () in
  let cost = Dk_sim.Cost.default in
  let nic_a = Rdma.create ~engine ~cost () in
  let nic_b = Rdma.create ~engine ~cost () in
  let da = Demi.create ~engine ~cost ~rdma:nic_a () in
  let db = Demi.create ~engine ~cost ~rdma:nic_b () in

  (* Control path: pair the queue pairs (rdmacm-style, out of band). *)
  let qp_a = Rdma.create_qp nic_a and qp_b = Rdma.create_qp nic_b in
  Rdma.connect qp_a qp_b;
  let qa = Result.get_ok (Demi.rdma_endpoint da ~depth:16 qp_a) in
  let qb = Result.get_ok (Demi.rdma_endpoint db ~depth:16 qp_b) in

  (* B: pong everything back. *)
  let loop = Event_loop.create db in
  Event_loop.on_message loop qb (Event_loop.send loop qb);

  (* A: ping N times, measuring RTT. *)
  let hist = Dk_sim.Histogram.create () in
  let rounds = 1000 in
  for i = 1 to rounds do
    let sga = Result.get_ok (Demi.sga_alloc da (Printf.sprintf "ping %04d" i)) in
    let t0 = Engine.now engine in
    ignore (Demi.blocking_push da qa sga);
    (match Demi.blocking_pop da qa with
    | Types.Popped reply ->
        Dk_sim.Histogram.record hist (Int64.sub (Engine.now engine) t0);
        Demi.sga_free da reply
    | r -> Format.kasprintf failwith "pong failed: %a" Types.pp_op_result r);
    Demi.sga_free da sga
  done;
  Format.printf "%d round trips: %a@." rounds Dk_sim.Histogram.pp_summary hist;
  let st = Rdma.stats nic_a in
  Format.printf
    "device: %d sends, %d RNR events, %d registration failures — the libOS's@."
    st.Rdma.sends st.Rdma.rnr_events st.Rdma.registration_failures;
  Format.printf
    "buffer management and flow control kept both failure counters at zero.@.";
  must (Demi.close da qa);
  must (Demi.close db qb)
