(* Tests for dk_device: programs, NIC + fabric, block device, RDMA. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Prog = Dk_device.Prog
module Nic = Dk_device.Nic
module Fabric = Dk_device.Fabric
module Block = Dk_device.Block
module Rdma = Dk_device.Rdma

let cost = Cost.default

(* ---------------- Prog ---------------- *)

let prog_preds () =
  check_bool "true" true (Prog.eval_pred Prog.True "x");
  check_bool "false" false (Prog.eval_pred Prog.False "x");
  check_bool "len_ge" true (Prog.eval_pred (Prog.Len_ge 3) "abc");
  check_bool "len_ge fail" false (Prog.eval_pred (Prog.Len_ge 4) "abc");
  check_bool "byte_eq" true (Prog.eval_pred (Prog.Byte_eq (1, 'b')) "abc");
  check_bool "byte_eq oob" false (Prog.eval_pred (Prog.Byte_eq (9, 'b')) "abc");
  check_bool "byte_in" true (Prog.eval_pred (Prog.Byte_in (0, 'a', 'c')) "bcd");
  check_bool "prefix" true (Prog.eval_pred (Prog.Prefix "GET") "GET /k1");
  check_bool "prefix fail" false (Prog.eval_pred (Prog.Prefix "SET") "GET /k1");
  check_bool "all" true
    (Prog.eval_pred (Prog.All [ Prog.Len_ge 1; Prog.Prefix "G" ]) "G");
  check_bool "any" true
    (Prog.eval_pred (Prog.Any [ Prog.False; Prog.Prefix "G" ]) "G");
  check_bool "not" true (Prog.eval_pred (Prog.Not Prog.False) "")

let prog_hash_steering () =
  (* Hash_mod partitions the key space completely and deterministically:
     every payload matches exactly one of the k steering filters. *)
  let k = 4 in
  let filters =
    List.init k (fun target -> Prog.Hash_mod (0, 8, k, target))
  in
  for i = 0 to 99 do
    let payload = Printf.sprintf "key-%04d" i in
    let matches =
      List.length (List.filter (fun f -> Prog.eval_pred f payload) filters)
    in
    check_int "exactly one partition" 1 matches
  done

let prog_maps () =
  check_str "identity" "abc" (Prog.eval_map Prog.Identity "abc");
  check_str "prepend" "Habc" (Prog.eval_map (Prog.Prepend "H") "abc");
  check_str "append" "abcT" (Prog.eval_map (Prog.Append "T") "abc");
  check_str "truncate" "ab" (Prog.eval_map (Prog.Truncate 2) "abc");
  check_str "truncate long" "abc" (Prog.eval_map (Prog.Truncate 9) "abc");
  let enc = Prog.eval_map (Prog.Xor_mask 0x20) "abc" in
  check_str "xor involutive" "abc" (Prog.eval_map (Prog.Xor_mask 0x20) enc);
  check_str "chain" "[abc]"
    (Prog.eval_map (Prog.Chain [ Prog.Prepend "["; Prog.Append "]" ]) "abc")

let prog_printers () =
  let buf = Format.asprintf "%a" Prog.pp_pred
      (Prog.All [ Prog.Prefix "GET"; Prog.Not (Prog.Byte_eq (3, ' ')) ]) in
  check_bool "pred printed" true (String.length buf > 0);
  let buf2 = Format.asprintf "%a" Prog.pp_map
      (Prog.Chain [ Prog.Prepend "h"; Prog.Xor_mask 7; Prog.Truncate 9 ]) in
  check_bool "map printed" true (String.length buf2 > 0)

let prog_footprint () =
  check_int "pred footprint" 3 (Prog.filter_footprint (Prog.Prefix "GET"));
  check_bool "map footprint grows" true
    (Prog.map_footprint (Prog.Xor_mask 1) 100 = 100)

(* ---------------- NIC + Fabric ---------------- *)

let two_nics ?loss () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost ?loss () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  let b = Nic.create ~engine ~cost ~mac:2 () in
  Fabric.attach fabric a;
  Fabric.attach fabric b;
  (engine, fabric, a, b)

let nic_transmit_delivers () =
  let engine, fabric, a, b = two_nics () in
  check_bool "accepted" true (Nic.transmit a ~dst:2 "hello frame");
  Engine.run engine;
  check_int "delivered" 1 (Fabric.stats fabric).Fabric.delivered;
  (match Nic.poll_rx b with
  | Some f -> check_str "payload" "hello frame" f
  | None -> Alcotest.fail "no frame");
  let sa = Nic.stats a in
  check_int "tx count" 1 sa.Nic.tx_frames;
  check_int "tx bytes" 11 sa.Nic.tx_bytes

let nic_transmit_costs_doorbell () =
  let engine, _, a, _ = two_nics () in
  let t0 = Engine.now engine in
  ignore (Nic.transmit a ~dst:2 "x");
  let elapsed = Int64.sub (Engine.now engine) t0 in
  check Alcotest.int64 "doorbell cost only" cost.Cost.pcie_doorbell elapsed

let nic_broadcast () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let nics = List.init 3 (fun i -> Nic.create ~engine ~cost ~mac:(i + 1) ()) in
  List.iter (Fabric.attach fabric) nics;
  (match nics with
  | a :: _ -> ignore (Nic.transmit a ~dst:Fabric.broadcast "bcast")
  | [] -> ());
  Engine.run engine;
  (* sender must not receive its own broadcast *)
  (match nics with
  | a :: rest ->
      check_bool "sender empty" true (Nic.poll_rx a = None);
      List.iter
        (fun n -> check_bool "others got it" true (Nic.poll_rx n <> None))
        rest
  | [] -> ())

let nic_rx_overflow () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  let b = Nic.create ~engine ~cost ~mac:2 ~rx_capacity:2 () in
  Fabric.attach fabric a;
  Fabric.attach fabric b;
  for _ = 1 to 5 do
    ignore (Nic.transmit a ~dst:2 "f")
  done;
  Engine.run engine;
  let sb = Nic.stats b in
  check_int "kept 2" 2 sb.Nic.rx_frames;
  check_int "dropped 3" 3 sb.Nic.rx_dropped

let nic_tx_ring_full () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let a = Nic.create ~engine ~cost ~mac:1 ~tx_capacity:1 () in
  Fabric.attach fabric a;
  check_bool "first ok" true (Nic.transmit a ~dst:2 "x");
  check_bool "second rejected" false (Nic.transmit a ~dst:2 "y");
  check_int "rejected stat" 1 (Nic.stats a).Nic.tx_rejected;
  Engine.run engine;
  check_bool "ring drained" true (Nic.transmit a ~dst:2 "z")

let nic_transmit_many_one_ring () =
  let engine, fabric, a, b = two_nics () in
  let rings0 = Nic.tx_doorbells a in
  let accepted = Nic.transmit_many a ~dst:2 [ "m1"; "m2"; "m3" ] in
  check_int "all accepted" 3 accepted;
  Engine.run engine;
  check_int "one ring" 1 (Nic.tx_doorbells a - rings0);
  check_int "delivered" 3 (Fabric.stats fabric).Fabric.delivered;
  List.iter
    (fun expect ->
      match Nic.poll_rx b with
      | Some f -> check_str "frame order" expect f
      | None -> Alcotest.fail "missing frame")
    [ "m1"; "m2"; "m3" ]

let nic_window_coalesces_rings () =
  let engine, fabric, a, b = two_nics () in
  Nic.set_tx_window a 500L;
  let rings0 = Nic.tx_doorbells a in
  for i = 1 to 4 do
    check_bool "accepted" true (Nic.transmit a ~dst:2 (Printf.sprintf "w%d" i))
  done;
  Engine.run engine;
  check_int "one coalesced ring" 1 (Nic.tx_doorbells a - rings0);
  check_int "all delivered" 4 (Fabric.stats fabric).Fabric.delivered;
  List.iter
    (fun i ->
      match Nic.poll_rx b with
      | Some f -> check_str "frame order" (Printf.sprintf "w%d" i) f
      | None -> Alcotest.fail "missing frame")
    [ 1; 2; 3; 4 ];
  (* back to window 0: the very next transmit rings immediately *)
  Nic.set_tx_window a 0L;
  ignore (Nic.transmit a ~dst:2 "solo");
  check_int "per-frame ring" 2 (Nic.tx_doorbells a - rings0)

let fabric_loss () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost ~loss:1.0 () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  let b = Nic.create ~engine ~cost ~mac:2 () in
  Fabric.attach fabric a;
  Fabric.attach fabric b;
  ignore (Nic.transmit a ~dst:2 "doomed");
  Engine.run engine;
  check_int "lost" 1 (Fabric.stats fabric).Fabric.lost;
  check_bool "nothing arrived" true (Nic.poll_rx b = None)

let fabric_unrouted () =
  let engine, fabric, a, _ = two_nics () in
  ignore (Nic.transmit a ~dst:99 "nowhere");
  Engine.run engine;
  check_int "unrouted" 1 (Fabric.stats fabric).Fabric.unrouted

let fabric_duplicate_mac () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  let b = Nic.create ~engine ~cost ~mac:1 () in
  Fabric.attach fabric a;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Fabric.attach: duplicate MAC") (fun () ->
      Fabric.attach fabric b)

let nic_rx_notify () =
  let engine, _, a, b = two_nics () in
  let notified = ref 0 in
  Nic.set_rx_notify b (fun () -> incr notified);
  ignore (Nic.transmit a ~dst:2 "one");
  ignore (Nic.transmit a ~dst:2 "two");
  Engine.run engine;
  check_int "two notifications" 2 !notified

let nic_programmable_filter () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  let b = Nic.create ~engine ~cost ~mac:2 ~programmable:true () in
  Fabric.attach fabric a;
  Fabric.attach fabric b;
  let keep = Prog.Prefix "KEEP" in
  check_bool "set pipeline ok" true
    (Nic.set_rx_pipeline b [ { Prog.guard = Prog.Not keep; act = Prog.Drop } ]
     = Ok ());
  ignore (Nic.transmit a ~dst:2 "KEEP me");
  ignore (Nic.transmit a ~dst:2 "DROP me");
  Engine.run engine;
  let sb = Nic.stats b in
  check_int "one kept" 1 sb.Nic.rx_frames;
  check_int "one filtered" 1 sb.Nic.rx_filtered;
  (match Nic.poll_rx b with
  | Some f -> check_str "the kept one" "KEEP me" f
  | None -> Alcotest.fail "expected frame")

let nic_programmable_map () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  let b = Nic.create ~engine ~cost ~mac:2 ~programmable:true () in
  Fabric.attach fabric a;
  Fabric.attach fabric b;
  ignore
    (Nic.set_rx_pipeline b
       [ { Prog.guard = Prog.True; act = Prog.Rewrite (Prog.Prepend "HDR:") } ]);
  ignore (Nic.transmit a ~dst:2 "body");
  Engine.run engine;
  match Nic.poll_rx b with
  | Some f -> check_str "mapped" "HDR:body" f
  | None -> Alcotest.fail "expected frame"

let nic_not_programmable () =
  let engine = Engine.create () in
  let a = Nic.create ~engine ~cost ~mac:1 () in
  check_bool "pipeline refused" true
    (Nic.set_rx_pipeline a [ { Prog.guard = Prog.True; act = Prog.Drop } ]
     = Error `Not_programmable)

(* A frame's hops re-arm pooled descriptors, so on a warmed two-NIC
   fabric a burst of frames built beforehand allocates, from
   [Nic.transmit] to [Nic.poll_rx], only the rx ring's [Some] and the
   clock the rx flight entry boxes: about 4 words a frame. A closure
   and an event per hop would cost about 60. *)
let nic_frame_alloc () =
  let engine, _, a, b = two_nics () in
  let n = 256 in
  let frames = Array.init n (fun i -> String.make (64 + i) 'f') in
  let burst () =
    for i = 0 to n - 1 do
      ignore (Nic.transmit a ~dst:2 frames.(i))
    done;
    Engine.run engine;
    let got = ref 0 in
    while Nic.poll_rx b <> None do
      incr got
    done;
    !got
  in
  (* warm: the pools, the rx ring and the engine's heap reach their
     size for a burst, and the fabric learns the link *)
  ignore (burst ());
  ignore (burst ());
  let before = Gc.minor_words () in
  let got = burst () in
  let per_frame = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "every frame received" n got;
  check_bool
    (Printf.sprintf "%.1f words per frame, at most 8" per_frame)
    true (per_frame <= 8.)

(* ---------------- Block ---------------- *)

let block_write_read () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~block_size:512 ~block_count:64 () in
  check_bool "write ok" true (Block.submit_write d ~wr_id:1 ~lba:3 "hello");
  Engine.run engine;
  (match Block.poll_cq d with
  | Some c ->
      check_int "write wr_id" 1 c.Block.wr_id;
      check_bool "write ok status" true (c.Block.status = `Ok)
  | None -> Alcotest.fail "no write completion");
  check_bool "read ok" true (Block.submit_read d ~wr_id:2 ~lba:3);
  Engine.run engine;
  match Block.poll_cq d with
  | Some { Block.wr_id = 2; status = `Ok; data = Some data } ->
      check_str "padded read" ("hello" ^ String.make 507 '\000') data
  | _ -> Alcotest.fail "bad read completion"

let block_read_unwritten_zeros () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~block_size:16 () in
  ignore (Block.submit_read d ~wr_id:1 ~lba:0);
  Engine.run engine;
  match Block.poll_cq d with
  | Some { Block.data = Some data; _ } ->
      check_str "zeros" (String.make 16 '\000') data
  | _ -> Alcotest.fail "no completion"

let block_bad_lba () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~block_count:4 () in
  ignore (Block.submit_read d ~wr_id:9 ~lba:100);
  Engine.run engine;
  match Block.poll_cq d with
  | Some c -> check_bool "bad lba" true (c.Block.status = `Bad_lba)
  | None -> Alcotest.fail "no completion"

let block_sq_full () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~sq_depth:2 () in
  check_bool "1" true (Block.submit_read d ~wr_id:1 ~lba:0);
  check_bool "2" true (Block.submit_read d ~wr_id:2 ~lba:1);
  check_bool "3 rejected" false (Block.submit_read d ~wr_id:3 ~lba:2);
  check_int "rejected stat" 1 (Block.stats d).Block.rejected;
  Engine.run engine;
  check_int "completions" 2 (Block.cq_pending d)

let block_write_too_big () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~block_size:8 () in
  Alcotest.check_raises "oversize"
    (Invalid_argument "Block.submit_write: data exceeds block size")
    (fun () -> ignore (Block.submit_write d ~wr_id:1 ~lba:0 "123456789"))

let block_latency_model () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~block_size:4096 () in
  ignore (Block.submit_write d ~wr_id:1 ~lba:0 "data");
  let t0 = Engine.now engine in
  Engine.run engine;
  let elapsed = Int64.sub (Engine.now engine) t0 in
  check_bool "write latency >= nvme_write" true
    (Int64.compare elapsed cost.Cost.nvme_write >= 0)

let block_programmable_write_prog () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost ~block_size:64 ~programmable:true () in
  ignore (Block.set_write_prog d (Some (Prog.Xor_mask 0x5a)));
  ignore (Block.submit_write d ~wr_id:1 ~lba:0 "secret");
  Engine.run engine;
  ignore (Block.poll_cq d);
  (* read without the read program: ciphertext on flash *)
  ignore (Block.submit_read d ~wr_id:2 ~lba:0);
  Engine.run engine;
  (match Block.poll_cq d with
  | Some { Block.data = Some data; _ } ->
      check_bool "stored encrypted" true
        (not (String.equal (String.sub data 0 6) "secret"))
  | _ -> Alcotest.fail "read1");
  (* with the matching read program: plaintext back *)
  ignore (Block.set_read_prog d (Some (Prog.Xor_mask 0x5a)));
  ignore (Block.submit_read d ~wr_id:3 ~lba:0);
  Engine.run engine;
  match Block.poll_cq d with
  | Some { Block.data = Some data; _ } ->
      check_str "decrypted" "secret" (String.sub data 0 6)
  | _ -> Alcotest.fail "read2"

let block_not_programmable () =
  let engine = Engine.create () in
  let d = Block.create ~engine ~cost () in
  check_bool "write prog refused" true
    (Block.set_write_prog d (Some Prog.Identity) = Error `Not_programmable);
  check_bool "read prog refused" true
    (Block.set_read_prog d (Some Prog.Identity) = Error `Not_programmable)

(* ---------------- RDMA ---------------- *)

let rdma_pair ?(registered = fun _ -> true) () =
  let engine = Engine.create () in
  let nic = Rdma.create ~engine ~cost ~is_registered:registered () in
  let qa = Rdma.create_qp nic in
  let qb = Rdma.create_qp nic in
  Rdma.connect qa qb;
  (engine, nic, qa, qb)

let mgr = Dk_mem.Manager.create ()

let rdma_send_recv () =
  let engine, _, qa, qb = rdma_pair () in
  let recv_buf = Dk_mem.Manager.alloc_exn mgr 4096 in
  Rdma.post_recv qb ~wr_id:100 recv_buf;
  let sga = Option.get (Dk_mem.Manager.sga_of_string mgr "rdma payload") in
  Rdma.post_send qa ~wr_id:1 sga;
  Engine.run engine;
  (match Rdma.poll_recv_cq qb with
  | Some { Rdma.wr_id = 100; status = `Ok; len; buffer = Some b } ->
      check_int "length" 12 len;
      check_str "payload" "rdma payload"
        (Bytes.sub_string (Dk_mem.Buffer.store b) (Dk_mem.Buffer.off b) len)
  | _ -> Alcotest.fail "bad recv completion");
  match Rdma.poll_send_cq qa with
  | Some { Rdma.status = `Ok; _ } -> ()
  | _ -> Alcotest.fail "bad send completion"

let rdma_rnr () =
  (* No posted receive: the sender learns about it (§2's "allocating too
     few buffers causes communication to fail"). *)
  let engine, nic, qa, _ = rdma_pair () in
  let sga = Option.get (Dk_mem.Manager.sga_of_string mgr "no receiver") in
  Rdma.post_send qa ~wr_id:2 sga;
  Engine.run engine;
  (match Rdma.poll_send_cq qa with
  | Some { Rdma.status = `Rnr; _ } -> ()
  | _ -> Alcotest.fail "expected RNR");
  check_int "rnr counted" 1 (Rdma.stats nic).Rdma.rnr_events

let rdma_requires_registration () =
  let engine, nic, qa, qb = rdma_pair ~registered:(fun _ -> false) () in
  let recv_buf = Dk_mem.Manager.alloc_exn mgr 4096 in
  Rdma.post_recv qb ~wr_id:1 recv_buf;
  let sga = Dk_mem.Sga.of_string "unregistered" in
  Rdma.post_send qa ~wr_id:3 sga;
  Engine.run engine;
  (match Rdma.poll_send_cq qa with
  | Some { Rdma.status = `Not_registered; _ } -> ()
  | _ -> Alcotest.fail "expected registration failure");
  check_int "failure counted" 1 (Rdma.stats nic).Rdma.registration_failures

let rdma_buffer_too_small () =
  let engine, _, qa, qb = rdma_pair () in
  let recv_buf = Dk_mem.Manager.alloc_exn mgr 4 in
  Rdma.post_recv qb ~wr_id:5 recv_buf;
  let sga = Option.get (Dk_mem.Manager.sga_of_string mgr "way too long for that") in
  Rdma.post_send qa ~wr_id:6 sga;
  Engine.run engine;
  match Rdma.poll_send_cq qa with
  | Some { Rdma.status = `Too_long; _ } -> ()
  | _ -> Alcotest.fail "expected Too_long"

let rdma_not_connected () =
  let engine = Engine.create () in
  let nic = Rdma.create ~engine ~cost ~is_registered:(fun _ -> true) () in
  let q = Rdma.create_qp nic in
  Rdma.post_send q ~wr_id:7 (Dk_mem.Sga.of_string "x");
  match Rdma.poll_send_cq q with
  | Some { Rdma.status = `Not_connected; _ } -> ()
  | _ -> Alcotest.fail "expected Not_connected"

let rdma_free_protection () =
  (* Freeing the send buffer mid-flight must not corrupt the transfer:
     the buffer release defers until the NIC's DMA completes. *)
  let engine, _, qa, qb = rdma_pair () in
  let recv_buf = Dk_mem.Manager.alloc_exn mgr 4096 in
  Rdma.post_recv qb ~wr_id:1 recv_buf;
  let sga = Option.get (Dk_mem.Manager.sga_of_string mgr "protected") in
  Rdma.post_send qa ~wr_id:8 sga;
  (* App frees immediately — paper: "applications can free buffers while
     they are in use by a device". *)
  Dk_mem.Sga.free sga;
  Engine.run engine;
  match Rdma.poll_recv_cq qb with
  | Some { Rdma.status = `Ok; len; _ } -> check_int "payload intact" 9 len
  | _ -> Alcotest.fail "transfer failed"

let rdma_ordering () =
  let engine, _, qa, qb = rdma_pair () in
  for i = 1 to 5 do
    let buf = Dk_mem.Manager.alloc_exn mgr 64 in
    Rdma.post_recv qb ~wr_id:i buf
  done;
  for i = 1 to 5 do
    let sga = Option.get (Dk_mem.Manager.sga_of_string mgr (Printf.sprintf "msg%d" i)) in
    Rdma.post_send qa ~wr_id:i sga
  done;
  Engine.run engine;
  (* RC ordering: messages land in posted-receive order *)
  for i = 1 to 5 do
    match Rdma.poll_recv_cq qb with
    | Some { Rdma.wr_id; status = `Ok; buffer = Some b; len; _ } ->
        check_int "wr order" i wr_id;
        check_str "content order"
          (Printf.sprintf "msg%d" i)
          (Bytes.sub_string (Dk_mem.Buffer.store b) (Dk_mem.Buffer.off b) len)
    | _ -> Alcotest.fail "missing completion"
  done

let rdma_post_send_many_one_ring () =
  let engine, nic, qa, qb = rdma_pair () in
  for i = 1 to 3 do
    Rdma.post_recv qb ~wr_id:i (Dk_mem.Manager.alloc_exn mgr 64)
  done;
  let rings0 = Rdma.tx_doorbells nic in
  Rdma.post_send_many qa
    (List.init 3 (fun i ->
         (i + 1, Dk_mem.Sga.of_string (Printf.sprintf "batch%d" (i + 1)))));
  Engine.run engine;
  check_int "one ring" 1 (Rdma.tx_doorbells nic - rings0);
  for i = 1 to 3 do
    (match Rdma.poll_recv_cq qb with
    | Some { Rdma.status = `Ok; len; buffer = Some b; _ } ->
        check_str "content order"
          (Printf.sprintf "batch%d" i)
          (Bytes.sub_string (Dk_mem.Buffer.store b) (Dk_mem.Buffer.off b) len)
    | _ -> Alcotest.fail "missing recv completion");
    match Rdma.poll_send_cq qa with
    | Some { Rdma.wr_id; status = `Ok; _ } -> check_int "send wr order" i wr_id
    | _ -> Alcotest.fail "missing send completion"
  done

(* ---- one-sided operations ---- *)

let rdma_one_sided_read () =
  let engine, _, qa, qb = rdma_pair () in
  (* B exposes a window containing data; A reads it with no B-side CPU *)
  let window = Dk_mem.Manager.alloc_exn mgr 4096 in
  Dk_mem.Buffer.blit_from_string "remote contents here" 0 window 0 20;
  check_bool "expose ok" true (Rdma.expose_window qb window = Ok ());
  let dst = Dk_mem.Manager.alloc_exn mgr 64 in
  Rdma.post_read qa ~wr_id:11 ~remote_off:7 ~len:8 dst;
  Engine.run engine;
  (match Rdma.poll_send_cq qa with
  | Some { Rdma.wr_id = 11; status = `Ok; _ } -> ()
  | _ -> Alcotest.fail "read completion");
  check_str "read bytes" "contents"
    (Bytes.sub_string (Dk_mem.Buffer.store dst) (Dk_mem.Buffer.off dst) 8)

let rdma_one_sided_write () =
  let engine, _, qa, qb = rdma_pair () in
  let window = Dk_mem.Manager.alloc_exn mgr 4096 in
  ignore (Rdma.expose_window qb window);
  let sga = Option.get (Dk_mem.Manager.sga_of_string mgr "pushed remotely") in
  Rdma.post_write qa ~wr_id:12 ~remote_off:100 sga;
  Engine.run engine;
  (match Rdma.poll_send_cq qa with
  | Some { Rdma.wr_id = 12; status = `Ok; _ } -> ()
  | _ -> Alcotest.fail "write completion");
  check_str "window updated" "pushed remotely"
    (Bytes.sub_string (Dk_mem.Buffer.store window)
       (Dk_mem.Buffer.off window + 100) 15)

let rdma_one_sided_no_window () =
  let engine, _, qa, _ = rdma_pair () in
  let dst = Dk_mem.Manager.alloc_exn mgr 64 in
  Rdma.post_read qa ~wr_id:13 ~remote_off:0 ~len:8 dst;
  Engine.run engine;
  match Rdma.poll_send_cq qa with
  | Some { Rdma.status = `Rkey; _ } -> ()
  | _ -> Alcotest.fail "expected Rkey error"

let rdma_one_sided_out_of_range () =
  let engine, _, qa, qb = rdma_pair () in
  let window = Dk_mem.Manager.alloc_exn mgr 64 in
  ignore (Rdma.expose_window qb window);
  let dst = Dk_mem.Manager.alloc_exn mgr 128 in
  Rdma.post_read qa ~wr_id:14 ~remote_off:60 ~len:8 dst;
  Engine.run engine;
  match Rdma.poll_send_cq qa with
  | Some { Rdma.status = `Rkey; _ } -> ()
  | _ -> Alcotest.fail "expected range check"

let rdma_window_requires_registration () =
  let _, _, _, qb = rdma_pair ~registered:(fun _ -> false) () in
  let window = Dk_mem.Sga.of_string "unregistered" in
  match Dk_mem.Sga.segments window with
  | [ buf ] ->
      check_bool "refused" true (Rdma.expose_window qb buf = Error `Not_registered)
  | _ -> Alcotest.fail "setup"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let prog_filter_total =
  QCheck.Test.make ~name:"filters are total on arbitrary payloads" ~count:300
    QCheck.(pair small_string (int_bound 3))
    (fun (payload, pick) ->
      let f =
        match pick with
        | 0 -> Prog.Prefix "GET"
        | 1 -> Prog.Hash_mod (0, 16, 7, 3)
        | 2 -> Prog.All [ Prog.Len_ge 2; Prog.Byte_in (0, 'a', 'z') ]
        | _ -> Prog.Not (Prog.Byte_eq (5, 'x'))
      in
      let (_ : bool) = Prog.eval_pred f payload in
      true)

let prog_map_preserves_or_changes_len =
  QCheck.Test.make ~name:"xor mask is an involution" ~count:300
    QCheck.(pair small_string (int_bound 255))
    (fun (payload, k) ->
      String.equal payload
        (Prog.eval_map (Prog.Xor_mask k) (Prog.eval_map (Prog.Xor_mask k) payload)))

(* ---------------- descriptors never alias ----------------

   Random bursts of 64 B - 9 KB frames among 2-3 NICs, some of them
   running a pass-through rx pipeline, some scripts under a tx
   coalescing window (staged doorbell submissions): long frames spend
   longer in DMA, so completions overtake one another and descriptors
   are released out of order. Every frame is unique, so a descriptor
   handed out while still in flight shows as a frame received twice or
   never. *)

module Fault = Dk_fault.Fault

type burst = {
  gap : int; (* virtual ns the engine runs after the burst *)
  sends : (int * int * int) list; (* src, dst (>= NICs: unrouted), length *)
}

type alias_script = {
  n : int; (* NICs *)
  pipes : bool list; (* which run a pass-through rx pipeline *)
  window : bool; (* a 500 ns tx coalescing window on every NIC *)
  bursts : burst list;
}

let gen_alias_script =
  let open QCheck.Gen in
  int_range 2 3 >>= fun n ->
  let send = triple (int_bound (n - 1)) (int_bound n) (int_range 64 9000) in
  let burst =
    map2 (fun gap sends -> { gap; sends }) (int_bound 300_000)
      (list_size (int_range 1 24) send)
  in
  map3
    (fun pipes window bursts -> { n; pipes; window; bursts })
    (list_repeat n bool)
    (frequencyl [ (3, false); (1, true) ])
    (list_size (int_range 1 8) burst)

let pp_alias_script s =
  let pp_send (src, dst, len) =
    Printf.sprintf "%d->%d %dB" (src + 1) (dst + 1) len
  in
  let pp_burst b =
    Printf.sprintf "[%s] then %dns"
      (String.concat ", " (List.map pp_send b.sends))
      b.gap
  in
  Printf.sprintf "%d NICs, pipelines [%s], window %b: %s" s.n
    (String.concat ";" (List.map string_of_bool s.pipes))
    s.window
    (String.concat "; " (List.map pp_burst s.bursts))

let pass_through = [ { Prog.guard = Prog.True; act = Prog.Pass } ]

(* Runs the script under [plan]; [None] when every check holds, else
   what failed. *)
let run_alias_script ?plan { n; pipes; window; bursts } =
  let engine = Engine.create () in
  let fault = Fault.create () in
  Option.iter (Fault.install fault) plan;
  let fabric = Fabric.create ~engine ~cost ~fault () in
  let nics =
    Array.init n (fun i ->
        Nic.create ~engine ~cost ~fault ~mac:(i + 1) ~programmable:true ())
  in
  Array.iteri
    (fun i nic ->
      Fabric.attach fabric nic;
      if window then Nic.set_tx_window nic 500L;
      if List.nth pipes i then ignore (Nic.set_rx_pipeline nic pass_through))
    nics;
  (* Each frame starts with its serial number, so no two are equal.
     [origin] maps a routed frame to (src, dst, departure, serial). *)
  let origin = Hashtbl.create 64 and serial = ref 0 in
  let got = Array.make n [] in
  let poll () =
    Array.iteri
      (fun r nic ->
        let rec drain () =
          match Nic.poll_rx nic with
          | Some f ->
              got.(r) <- f :: got.(r);
              drain ()
          | None -> ()
        in
        drain ())
      nics
  in
  List.iter
    (fun { gap; sends } ->
      List.iter
        (fun (src, dst, len) ->
          let b = Bytes.make len (Char.chr (!serial land 0xff)) in
          Bytes.set_int64_be b 0 (Int64.of_int !serial);
          let frame = Bytes.to_string b in
          if Nic.transmit nics.(src) ~dst:(dst + 1) frame && dst < n then
            (* without a window the doorbell has rung: DMA starts now *)
            Hashtbl.replace origin frame
              (src, dst, Engine.now_ns engine + Cost.dma_ns cost len, !serial);
          incr serial)
        sends;
      Engine.run_for engine (Int64.of_int gap);
      poll ())
    bursts;
  Engine.run engine;
  poll ();
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun r frames ->
      List.iter
        (fun f ->
          match Hashtbl.find_opt origin f with
          | Some (_, dst, _, _) when dst = r ->
              Hashtbl.replace counts f
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
          | _ -> fail "NIC %d received a frame not sent to it" (r + 1))
        frames)
    got;
  let excess = Hashtbl.fold (fun _ c acc -> acc + c - 1) counts 0 in
  let dups =
    Fault.injected fault Fault.Fabric_dup
    + Fault.injected fault Fault.Nic_rx_dup
  in
  if excess > dups then
    fail "%d receptions beyond the sends, %d injected duplicates" excess dups;
  let tx =
    Array.fold_left (fun a nic -> a + (Nic.stats nic).Nic.tx_frames) 0 nics
  in
  let fs = Fabric.stats fabric in
  let carried =
    tx - Fault.injected fault Fault.Nic_tx_drop
    + Fault.injected fault Fault.Fabric_dup
  in
  let accounted = fs.Fabric.delivered + fs.Fabric.lost + fs.Fabric.unrouted in
  if carried <> accounted then
    fail "fabric law: tx - tx_drop + dup = %d, delivered + lost + unrouted = %d"
      carried accounted;
  (* With no plan every frame arrives once, and without a window each
     link delivers in departure order (ties in transmit order). *)
  if Option.is_none plan then
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        let sent =
          Hashtbl.fold
            (fun f (s, d, departed, k) acc ->
              if s = src && d = dst then ((departed, k), f) :: acc else acc)
            origin []
          |> List.sort compare |> List.map snd
        in
        let arrived =
          List.filter
            (fun f ->
              match Hashtbl.find_opt origin f with
              | Some (s, _, _, _) -> s = src
              | None -> false)
            (List.rev got.(dst))
        in
        let sent, arrived =
          if window then
            (List.sort String.compare sent, List.sort String.compare arrived)
          else (sent, arrived)
        in
        if not (List.equal String.equal sent arrived) then
          fail "link %d->%d delivered %d of %d frames, or out of order"
            (src + 1) (dst + 1) (List.length arrived) (List.length sent)
      done
    done;
  match !failures with [] -> None | fs -> Some (String.concat "; " fs)

let alias_plans = [ "dup-storm"; "reorder"; "nic-flaky"; "partition-heal" ]

let descriptors_never_alias =
  QCheck.Test.make ~name:"descriptors never alias" ~count:100
    (QCheck.make gen_alias_script ~print:pp_alias_script)
    (fun script ->
      let runs =
        (None, run_alias_script script)
        :: List.map
             (fun name ->
               ( Some name,
                 run_alias_script ?plan:(Fault.named ~seed:7L name) script ))
             alias_plans
      in
      List.for_all
        (fun (name, r) ->
          match r with
          | None -> true
          | Some msg ->
              QCheck.Test.fail_reportf "%s: %s"
                (Option.value ~default:"no plan" name)
                msg)
        runs)

let () =
  Alcotest.run "dk_device"
    [
      ( "prog",
        [
          Alcotest.test_case "predicates" `Quick prog_preds;
          Alcotest.test_case "hash steering partitions" `Quick prog_hash_steering;
          Alcotest.test_case "maps" `Quick prog_maps;
          Alcotest.test_case "footprints" `Quick prog_footprint;
          Alcotest.test_case "printers" `Quick prog_printers;
        ] );
      qsuite "prog-props" [ prog_filter_total; prog_map_preserves_or_changes_len ];
      qsuite "nic-props" [ descriptors_never_alias ];
      ( "nic",
        [
          Alcotest.test_case "transmit delivers" `Quick nic_transmit_delivers;
          Alcotest.test_case "doorbell cost" `Quick nic_transmit_costs_doorbell;
          Alcotest.test_case "broadcast" `Quick nic_broadcast;
          Alcotest.test_case "rx overflow" `Quick nic_rx_overflow;
          Alcotest.test_case "tx ring full" `Quick nic_tx_ring_full;
          Alcotest.test_case "transmit_many one ring" `Quick
            nic_transmit_many_one_ring;
          Alcotest.test_case "tx window coalesces" `Quick
            nic_window_coalesces_rings;
          Alcotest.test_case "rx notify" `Quick nic_rx_notify;
          Alcotest.test_case "programmable filter" `Quick nic_programmable_filter;
          Alcotest.test_case "programmable map" `Quick nic_programmable_map;
          Alcotest.test_case "not programmable" `Quick nic_not_programmable;
          Alcotest.test_case "frame allocates almost nothing" `Quick
            nic_frame_alloc;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "loss" `Quick fabric_loss;
          Alcotest.test_case "unrouted" `Quick fabric_unrouted;
          Alcotest.test_case "duplicate mac" `Quick fabric_duplicate_mac;
        ] );
      ( "block",
        [
          Alcotest.test_case "write/read" `Quick block_write_read;
          Alcotest.test_case "unwritten zeros" `Quick block_read_unwritten_zeros;
          Alcotest.test_case "bad lba" `Quick block_bad_lba;
          Alcotest.test_case "sq full" `Quick block_sq_full;
          Alcotest.test_case "write too big" `Quick block_write_too_big;
          Alcotest.test_case "latency model" `Quick block_latency_model;
          Alcotest.test_case "programmable write prog" `Quick block_programmable_write_prog;
          Alcotest.test_case "not programmable" `Quick block_not_programmable;
        ] );
      ( "rdma",
        [
          Alcotest.test_case "send/recv" `Quick rdma_send_recv;
          Alcotest.test_case "rnr" `Quick rdma_rnr;
          Alcotest.test_case "registration required" `Quick rdma_requires_registration;
          Alcotest.test_case "buffer too small" `Quick rdma_buffer_too_small;
          Alcotest.test_case "not connected" `Quick rdma_not_connected;
          Alcotest.test_case "free-protection" `Quick rdma_free_protection;
          Alcotest.test_case "ordering" `Quick rdma_ordering;
          Alcotest.test_case "post_send_many one ring" `Quick
            rdma_post_send_many_one_ring;
          Alcotest.test_case "one-sided read" `Quick rdma_one_sided_read;
          Alcotest.test_case "one-sided write" `Quick rdma_one_sided_write;
          Alcotest.test_case "read without window" `Quick rdma_one_sided_no_window;
          Alcotest.test_case "read out of range" `Quick rdma_one_sided_out_of_range;
          Alcotest.test_case "window registration" `Quick rdma_window_requires_registration;
        ] );
    ]
