(* Per-layer counts every workload reports, as deltas of the public obs
   registry across a timed window, plus the correctness conditions the
   same counters witness. *)

let counts ~ops s0 s1 =
  let d = Snap.delta s0 s1 in
  let per n = Round.ratio (d n) ops in
  let fast = d "mem.pool.fastpath_hits" in
  [
    ("core.tokens_per_op", per "core.token.minted");
    ("mem.allocs_per_op", per "mem.manager.allocs");
    ( "mem.inflight_hwm_bytes",
      float_of_int (Snap.gauge_hwm s1 "mem.manager.bytes_in_flight") );
    ("mem.pool.hit_ratio", Round.ratio fast (fast + d "mem.manager.allocs"));
    ("net.tcp.segs_per_op", per "net.tcp.segs_sent");
    ("net.tcp.retransmits", float_of_int (d "net.tcp.retransmits"));
    ("net.stack.decode_errors", float_of_int (d "net.stack.decode_errors"));
    ("device.nic.frames_per_op", per "device.nic.tx_frames");
    ("device.nic.doorbells_per_op", per "nic.tx.doorbells");
    ("device.nic.rx_dropped", float_of_int (d "device.nic.rx_dropped"));
    ("device.fabric.lost", float_of_int (d "device.fabric.lost"));
  ]

let errors s0 s1 =
  List.filter_map
    (fun n ->
      let v = Snap.delta s0 s1 n in
      if v = 0 then None else Some (Printf.sprintf "%s = %d, expected 0" n v))
    [ "net.stack.decode_errors"; "net.stack.checksum_failures" ]
