(* E1 — Figure 1: traditional (kernel-mediated) vs kernel-bypass data
   path. Echo round trips across message sizes, with per-operation
   syscall and copy accounting for the kernel path (the bypass path has
   none, by construction). *)

module Setup = Dk_apps.Sim_setup
module Echo = Dk_apps.Echo
module Posix = Dk_kernel.Posix
module H = Dk_sim.Histogram

let rounds = 50

let echo w size =
  ignore (Echo.serve w);
  match Echo.rtt w ~size ~rounds with
  | h, None -> H.quantile h 0.5
  | _, Some _ -> failwith "echo failed"

let kernel_rtt size =
  let w = Setup.world Kernel in
  let per_op n = float_of_int n /. float_of_int rounds in
  let p50 = echo w size in
  let s = Posix.stats w.client in
  (p50, per_op s.Posix.syscalls, per_op s.Posix.bytes_copied)

let run () =
  Report.header ~id:"E1: data-path architectures" ~source:"Figure 1"
    ~claim:
      "Kernel-bypass removes the OS kernel from the I/O path: echo RTT drops\n\
       by the syscall + kernel-stack + copy overheads; the bypass path makes\n\
       zero syscalls.";
  let widths = [ 8; 14; 14; 9; 14; 14 ] in
  let rows =
    List.map
      (fun size ->
        let krtt, ksys, kcopy = kernel_rtt size in
        let drtt = echo (Setup.world Demikernel) size in
        [
          string_of_int size;
          Report.ns krtt;
          Report.ns drtt;
          Report.ratio krtt drtt;
          Printf.sprintf "%.1f" ksys;
          Printf.sprintf "%.0f" kcopy;
        ])
      [ 64; 512; 1024; 4096; 16384 ]
  in
  Report.table widths
    [ "size(B)"; "kernel p50(ns)"; "bypass p50(ns)"; "speedup";
      "k.syscalls/op"; "k.copied B/op" ]
    rows;
  Report.footnote
    "bypass syscalls/op = 0 and copied bytes/op = 0 on the data path by design.\n"
