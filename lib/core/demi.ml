module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Stack = Dk_net.Stack
module Addr = Dk_net.Addr
module Prog = Dk_device.Prog
module Frame = Dk_wire.Frame
module Flight = Dk_obs.Flight
module Itbl = Dk_util.Itbl

type sock_meta = {
  proto : [ `Tcp | `Udp ];
  mutable port : int option;
  peer : Addr.endpoint option ref; (* UDP default destination *)
}

type file_meta = { base_lba : int; capacity_blocks : int }

type t = {
  engine : Engine.t;
  cost : Cost.t;
  stack : Stack.t option;
  posix : Dk_kernel.Posix.t option;
  rdma : Dk_device.Rdma.t option;
  disp : Block_dispatch.t option;
  tokens : Token.t;
  manager : Dk_mem.Manager.t;
  registry : Dk_mem.Registry.t;
  qds : Qimpl.t Itbl.t;
  socks : sock_meta Itbl.t;
  files : (string, file_meta) Hashtbl.t;
  (* device-offloaded filters: (udp port, payload-level predicate) *)
  mutable device_filters : (int * Prog.pred) list;
  (* device-offloaded rx pipelines: (udp port, payload-level stages) *)
  mutable device_pipelines : (int * Prog.pipeline) list;
  offloaded : unit Itbl.t;
  mutable next_qd : int;
  mutable next_file_lba : int;
  mutable next_udp_ephemeral : int;
  file_capacity_blocks : int;
}

let device_names t =
  List.concat
    [
      (match t.stack with Some _ -> [ "nic0" ] | None -> []);
      (match t.rdma with Some _ -> [ "rdma0" ] | None -> []);
      (match t.disp with Some _ -> [ "nvme0" ] | None -> []);
    ]

let create ~engine ~cost ?stack ?posix ?rdma ?block
    ?(sanitize = Dk_mem.Dk_check.enabled_from_env ()) () =
  let registry = Dk_mem.Registry.create () in
  let disp = Option.map Block_dispatch.create block in
  let t_ref = ref None in
  (* Transparent registration (§4.5): each new region the manager
     creates is registered with every attached device, paying the
     registration and pinning costs once per region. *)
  let on_new_region region =
    match !t_ref with
    | None -> ()
    | Some t ->
        let names = device_names t in
        if names <> [] then begin
          Engine.consume t.engine t.cost.Cost.register_region;
          Engine.consume t.engine
            (Int64.mul
               (Int64.of_int (Dk_mem.Region.pages region))
               t.cost.Cost.pin_per_page);
          List.iter
            (fun device ->
              Dk_mem.Registry.register t.registry
                ~region_id:(Dk_mem.Region.id region) ~device)
            names
        end
  in
  let manager =
    Dk_mem.Manager.create ~on_new_region ~sanitize ()
  in
  let t =
    {
      engine;
      cost;
      stack;
      posix;
      rdma;
      disp;
      tokens = Token.create ~audit:sanitize ~now:(fun () -> Engine.now engine) ();
      manager;
      registry;
      qds = Itbl.create 64;
      socks = Itbl.create 16;
      files = Hashtbl.create 8;
      device_filters = [];
      device_pipelines = [];
      offloaded = Itbl.create 4;
      next_qd = 1;
      next_file_lba = 0;
      next_udp_ephemeral = 40000;
      file_capacity_blocks = 4096;
    }
  in
  t_ref := Some t;
  (match rdma with
  | Some dev ->
      Dk_device.Rdma.set_mr_check dev (fun region_id ->
          match region_id with
          | Some id ->
              Dk_mem.Registry.is_registered t.registry ~region_id:id
                ~device:"rdma0"
          | None -> false)
  | None -> ());
  t

let engine t = t.engine
let cost t = t.cost
let manager t = t.manager
let registry t = t.registry
let outstanding_tokens t = Token.outstanding t.tokens
let sanitized t = Dk_mem.Manager.sanitized t.manager

(* Shutdown sweep for sanitizer mode: once the application believes all
   I/O has drained, every minted token must be completed+redeemed (or
   watched and delivered) and every buffer freed. Reports through
   Dk_check and returns (dangling tokens, leaked allocations). *)
let check_shutdown t =
  let dangling = Token.report_dangling ~context:"libOS shutdown" t.tokens in
  let leaks = Dk_mem.Manager.check_leaks t.manager in
  (dangling, leaks)

(* ---- descriptor table ---- *)

(* Aggregates across all queues: [push], [push_batch], [pop] and
   [accept_async] count each operation once, whatever the descriptor
   is bound to. *)
let m_pushes = Dk_obs.Metrics.counter "core.pushes"
let m_pops = Dk_obs.Metrics.counter "core.pops"
let m_poll_iters = Dk_obs.Metrics.counter "core.poll_iters"
let m_ready_hits = Dk_obs.Metrics.counter "core.wait.ready_hits"
let m_push_batched = Dk_obs.Metrics.counter "core.push.batched"

(* "qd <qd> (<kind>) tok <tok>" *)
let flight_op t kind qd impl tok =
  Flight.record_qd_op Flight.default ~now:(Engine.now t.engine) kind ~qd
    impl.Qimpl.kind ~tok

let install t impl =
  let qd = t.next_qd in
  t.next_qd <- t.next_qd + 1;
  Itbl.replace t.qds qd impl;
  qd

let lookup t qd = Itbl.find_opt t.qds qd

(* ---- memory ---- *)

let sga_alloc_segs t strings =
  let bufs =
    List.map
      (fun s ->
        match Dk_mem.Manager.alloc_string t.manager s with
        | Some b -> Some b
        | None -> None)
      strings
  in
  if List.for_all Option.is_some bufs then
    Ok (Dk_mem.Sga.of_buffers (List.map Option.get bufs))
  else begin
    List.iter (function Some b -> Dk_mem.Buffer.free b | None -> ()) bufs;
    Error `No_memory
  end

let sga_alloc t s = sga_alloc_segs t [ s ]

let sga_free t sga =
  Engine.consume t.engine t.cost.Cost.free;
  Dk_mem.Sga.free sga

(* ---- waiting ----

   One poll driver behind every wait entry point. [ready t arg] is the
   entry point's readiness check; between checks the driver charges one
   poll-loop step and runs one event. [None] means the engine ran dry
   (no deadline) or the deadline passed.

   The deadline rule: never run an event due after the deadline — its
   completion is outside the window and belongs to a later wait. When
   nothing is due by the deadline the loop spins until it, modelled by
   jumping the clock. Once the clock reaches the deadline (the loop's
   own CPU charges may push it past), the events due by the deadline
   still run (late-run: the clock does not move) and readiness gets one
   last check, so a completion due exactly at the deadline wins the
   tie. *)

let wait_step t =
  Dk_obs.Metrics.incr m_poll_iters;
  Engine.consume t.engine t.cost.Cost.poll_iter

let rec run_due t deadline =
  match Engine.next_at t.engine with
  | Some ts when Int64.compare ts deadline <= 0 ->
      ignore (Engine.step t.engine);
      run_due t deadline
  | Some _ | None -> ()

let rec poll t ready arg deadline =
  match ready t arg with
  | Some _ as r -> r
  | None -> (
      match deadline with
      | None ->
          wait_step t;
          if Engine.step t.engine then poll t ready arg deadline else None
      | Some d when Int64.compare (Engine.now t.engine) d >= 0 ->
          run_due t d;
          ready t arg
      | Some d ->
          wait_step t;
          (match Engine.next_at t.engine with
          | Some ts when Int64.compare ts d <= 0 -> ignore (Engine.step t.engine)
          | Some _ | None ->
              Engine.consume t.engine (Int64.sub d (Engine.now t.engine)));
          poll t ready arg deadline)

(* [now + ns], saturating at the engine's horizon ([max_int] ns), which
   its clock can reach: a wrapped sum would be a deadline already past,
   and one beyond the horizon a wait the clock could never end. *)
let horizon = Int64.of_int max_int

let deadline_of t = function
  | Some ns ->
      let now = Engine.now t.engine in
      Some
        (if Int64.compare ns (Int64.sub horizon now) > 0 then horizon
         else Int64.add now ns)
  | None -> None

let try_wait t tok = Token.redeem t.tokens tok

let wait_until t tok deadline =
  match Token.status t.tokens tok with
  | `Unknown -> Types.Failed `Bad_qtoken
  | `Pending | `Done -> (
      match poll t try_wait tok deadline with
      | Some r -> r
      | None -> (
          match deadline with
          | None -> Types.Failed `Deadlock
          | Some _ -> Types.Failed `Timeout))

let wait t tok = wait_until t tok None

let wait_timeout t tok ~timeout =
  wait_until t tok (deadline_of t (Some timeout))

(* A ready token from a wait set: redeem it for the caller. *)
let redeem_ready t tok =
  Dk_obs.Metrics.incr m_ready_hits;
  Some (tok, Option.get (Token.redeem t.tokens tok))
  [@@hot.alloc
    "the (token, result) completion pair is the wait API's return surface"]

(* wait_any / wait_all register every token into a wait set once, then
   dequeue readiness in O(1) per completion — no rescanning of [toks]
   per poll iteration. Any token left unredeemed is unregistered before
   returning, so it stays redeemable by a later wait. *)

let wait_any ?timeout t toks =
  let ws = Token.waitset () in
  List.iter (Token.register t.tokens ws) toks;
  (* Several tokens may complete in one step: take the first done one
     in argument order, as a left-to-right scan would. The scan runs
     once, when the wait set first reports a completion. *)
  let ready t ws =
    match Token.take_ready t.tokens ws with
    | None -> None
    | Some _ -> (
        let is_done tok = Token.status t.tokens tok = `Done in
        match List.find_opt is_done toks with
        | Some tok -> redeem_ready t tok
        | None -> None)
  in
  let r = poll t ready ws (deadline_of t timeout) in
  List.iter (Token.unregister t.tokens ws) toks;
  r

let wait_all ?timeout t toks =
  let ws = Token.waitset () in
  (* The distinct tokens not yet seen done. Nothing is redeemed until
     every token is done — a partial set must stay waitable after a
     timeout. *)
  let missing = Itbl.create 16 in
  List.iter
    (fun tok ->
      Itbl.replace missing tok ();
      Token.register t.tokens ws tok)
    toks;
  let n = Itbl.length missing in
  let rec ready t ws =
    match Token.take_ready t.tokens ws with
    | Some tok ->
        Itbl.remove missing tok;
        ready t ws
    | None when Itbl.length missing > 0 -> None
    | None ->
        Dk_obs.Metrics.add m_ready_hits n;
        Some
          (List.map
             (fun tok -> (tok, Option.get (Token.redeem t.tokens tok)))
             toks)
  in
  let r = poll t ready ws (deadline_of t timeout) in
  List.iter (Token.unregister t.tokens ws) toks;
  r

(* ---- persistent wait sets (epoll-style registration, exactly-once
   delivery): register once, then drain completions in O(1) per event.
   This is what a server with thousands of outstanding ops should use;
   wait_any builds and tears down the registration per call. *)

type waitset = Token.waitset

let waitset (_ : t) = Token.waitset ()
let waitset_add t ws tok = Token.register t.tokens ws tok

let next_ready t ws =
  match Token.take_ready t.tokens ws with
  | Some tok -> redeem_ready t tok
  | None -> None

let wait_next ?timeout t ws = poll t next_ready ws (deadline_of t timeout)

let watch t tok k = Token.watch t.tokens tok k

(* ---- batching knobs ---- *)

(* One window for every attached device's submission stage. 0 (the
   default) rings per operation — the bit-identical unbatched path. *)
let set_batch_window t ns =
  (match t.stack with
  | Some stack -> Dk_device.Nic.set_tx_window (Stack.nic stack) ns
  | None -> ());
  (match t.rdma with
  | Some dev -> Dk_device.Rdma.set_tx_window dev ns
  | None -> ());
  match t.disp with
  | Some disp -> Dk_device.Block.set_sq_window (Block_dispatch.block disp) ns
  | None -> ()

(* ---- data path ----

   Each push and pop costs one counter bump and one flight-recorder
   entry, and no virtual time. *)

let push_one t qd impl sga =
  let tok = Token.fresh t.tokens in
  Dk_obs.Metrics.incr m_pushes;
  flight_op t Flight.Push qd impl tok;
  impl.Qimpl.push sga tok;
  tok

let pop_one t qd impl =
  let tok = Token.fresh t.tokens in
  Dk_obs.Metrics.incr m_pops;
  flight_op t Flight.Pop qd impl tok;
  impl.Qimpl.pop tok;
  tok

let push t qd sga =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some impl -> Ok (push_one t qd impl sga)

(* Batched submission: one descriptor-table lookup, one token minted
   per sga, and — when the device's tx window is open — one doorbell
   for the whole batch instead of one per element. *)
let rec push_tokens t qd impl = function
  | [] -> []
  | sga :: rest ->
      Dk_obs.Metrics.incr m_push_batched;
      let tok = push_one t qd impl sga in
      tok :: push_tokens t qd impl rest
  [@@hot.alloc "the batch API returns one fresh token list per call"]

let push_batch t qd sgas =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some impl -> Ok (push_tokens t qd impl sgas)

let pop t qd =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some impl -> Ok (pop_one t qd impl)

let blocking_push t qd sga =
  match push t qd sga with
  | Error e -> Types.Failed e
  | Ok tok -> wait t tok

let blocking_pop t qd =
  match pop t qd with
  | Error e -> Types.Failed e
  | Ok tok -> wait t tok

(* ---- sockets ---- *)

let socket t proto =
  match (t.stack, t.posix) with
  | None, None -> Error `Not_supported
  | _ ->
      let qd = install t (Qimpl.not_supported t.tokens ~kind:"unbound-socket") in
      Itbl.replace t.socks qd { proto; port = None; peer = ref None };
      Ok qd

let alloc_udp_port t =
  let port = t.next_udp_ephemeral in
  t.next_udp_ephemeral <- t.next_udp_ephemeral + 1;
  port

let bind_udp t qd meta port =
  match t.stack with
  | None -> Error `Not_supported
  | Some stack -> (
      match Net_queue.udp ~tokens:t.tokens ~stack ~port ~peer:meta.peer () with
      | Error `In_use -> Error `Not_supported
      | Ok impl ->
          meta.port <- Some port;
          Itbl.replace t.qds qd impl;
          Ok ())

let bind t qd ~port =
  match Itbl.find_opt t.socks qd with
  | None -> Error `Bad_qd
  | Some meta -> (
      if meta.port <> None then Error `Not_supported
      else
        match meta.proto with
        | `Udp -> bind_udp t qd meta port
        | `Tcp ->
            meta.port <- Some port;
            Ok ())

let listen t qd =
  match Itbl.find_opt t.socks qd with
  | None -> Error `Bad_qd
  | Some meta -> (
      match (meta.proto, meta.port, t.stack, t.posix) with
      | `Tcp, Some port, Some stack, _ -> (
          let register impl = install t impl in
          match Net_queue.listener ~tokens:t.tokens ~stack ~port ~register () with
          | Error `In_use -> Error `Not_supported
          | Ok impl ->
              Itbl.replace t.qds qd impl;
              Ok ())
      | `Tcp, Some port, None, Some posix -> (
          (* kernel-fallback listener *)
          let register impl = install t impl in
          match Posix_queue.listener ~tokens:t.tokens ~posix ~port ~register with
          | Error `In_use -> Error `Not_supported
          | Ok impl ->
              Itbl.replace t.qds qd impl;
              Ok ())
      | `Tcp, _, _, _ | `Udp, _, _, _ -> Error `Not_supported)

let accept_async t qd =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some impl ->
      if impl.Qimpl.kind <> "tcp-listen" && impl.Qimpl.kind <> "posix-listen"
      then Error `Not_supported
      else Ok (pop_one t qd impl)

let accept t qd =
  match accept_async t qd with
  | Error e -> Error e
  | Ok tok -> (
      match wait t tok with
      | Types.Accepted qd' -> Ok qd'
      | Types.Failed e -> Error e
      | Types.Pushed | Types.Popped _ -> Error `Not_supported)

(* Kernel-fallback connect: through the legacy kernel's sockets. *)
let posix_connect t qd posix ~dst =
  let fd = Dk_kernel.Posix.socket posix in
  match Dk_kernel.Posix.connect posix fd ~dst with
  | Error _ -> Error `Refused
  | Ok () ->
      let ok =
        Engine.run_until t.engine (fun () ->
            Dk_kernel.Posix.connected posix fd)
      in
      if not ok && not (Dk_kernel.Posix.connected posix fd) then Error `Refused
      else begin
        let impl = Posix_queue.of_fd ~tokens:t.tokens ~posix ~fd () in
        Itbl.replace t.qds qd impl;
        Ok ()
      end

let connect t qd ~dst =
  match (Itbl.find_opt t.socks qd, t.stack) with
  | None, _ -> Error `Bad_qd
  | Some meta, None -> (
      match (meta.proto, t.posix) with
      | `Tcp, Some posix -> posix_connect t qd posix ~dst
      | (`Tcp | `Udp), _ -> Error `Not_supported)
  | Some meta, Some stack -> (
      match meta.proto with
      | `Udp ->
          meta.peer := Some dst;
          if meta.port = None then bind_udp t qd meta (alloc_udp_port t)
          else Ok ()
      | `Tcp ->
          let conn = Stack.tcp_connect stack ~dst in
          let failed = ref None in
          Dk_net.Tcp.set_on_close conn (fun reason -> failed := Some reason);
          let resolved () =
            Dk_net.Tcp.state conn = Dk_net.Tcp.Established || !failed <> None
          in
          let ok = Engine.run_until t.engine resolved in
          if not ok && not (resolved ()) then Error `Deadlock
          else if !failed <> None then
            Error
              (match !failed with
              | Some `Reset -> `Refused
              | Some `Timeout -> `Timeout
              | Some `Normal | None -> `Queue_closed)
          else begin
            let impl = Net_queue.of_conn ~tokens:t.tokens ~conn () in
            Itbl.replace t.qds qd impl;
            Ok ()
          end)

let close t qd =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some impl ->
      impl.Qimpl.close ();
      Itbl.remove t.qds qd;
      Itbl.remove t.socks qd;
      Ok ()

(* ---- RDMA ---- *)

let rdma_endpoint t ?depth qp =
  match t.rdma with
  | None -> Error `Not_supported
  | Some _ -> (
      match
        Rdma_queue.create ~tokens:t.tokens ~manager:t.manager ~qp ?depth ()
      with
      | Error e -> Error e
      | Ok impl -> Ok (install t impl))

(* ---- storage ---- *)

let fcreate t path =
  match t.disp with
  | None -> Error `Not_supported
  | Some disp ->
      if Hashtbl.mem t.files path then Error `Not_supported
      else begin
        let meta =
          { base_lba = t.next_file_lba; capacity_blocks = t.file_capacity_blocks }
        in
        t.next_file_lba <- t.next_file_lba + t.file_capacity_blocks;
        Hashtbl.replace t.files path meta;
        let impl =
          File_queue.create ~tokens:t.tokens ~engine:t.engine ~disp
            ~base_lba:meta.base_lba ~capacity_blocks:meta.capacity_blocks ()
        in
        Ok (install t impl)
      end

let fopen t path =
  match (t.disp, Hashtbl.find_opt t.files path) with
  | None, _ -> Error `Not_supported
  | Some _, None -> Error `Bad_qd
  | Some disp, Some meta ->
      let recovered = ref None in
      File_queue.recover ~engine:t.engine ~disp ~base_lba:meta.base_lba
        ~capacity_blocks:meta.capacity_blocks (fun len -> recovered := Some len);
      let ok = Engine.run_until t.engine (fun () -> !recovered <> None) in
      if not ok && !recovered = None then Error `Deadlock
      else
        let existing_len = Option.value ~default:0 !recovered in
        let impl =
          File_queue.create ~tokens:t.tokens ~engine:t.engine ~disp
            ~base_lba:meta.base_lba ~capacity_blocks:meta.capacity_blocks
            ~existing_len ()
        in
        Ok (install t impl)

(* ---- queues & composition ---- *)

let queue t = install t (Memq.impl (Memq.create t.tokens))

let with_two t qd1 qd2 f =
  match (lookup t qd1, lookup t qd2) with
  | Some a, Some b -> f a b
  | None, _ | _, None -> Error `Bad_qd

let merge t qd1 qd2 =
  with_two t qd1 qd2 (fun a b ->
      Ok (install t (Compose.merge ~tokens:t.tokens ~engine:t.engine ~a ~b)))

let prog_filter_cost t pred =
  let footprint = Dk_device.Prog.filter_footprint pred in
  fun (_ : Dk_mem.Sga.t) -> Dk_sim.Cost.filter_cpu_ns t.cost footprint

(* ---- the NIC's rx program ----

   Everything this libOS offloads to a programmable NIC compiles into
   the device's one rx pipeline. Payload-level terms shift every offset
   past the ethernet+IPv4+UDP headers ([Frame.udp_payload_off]), and
   every guard is conjoined with the socket's port match, so a program
   installed for one socket can never touch another port's traffic.
   Offloaded filters come first, as [Drop] stages; then the per-port
   pipelines, sorted by port (install order cannot change the
   program). *)

let rec shift_pred off (p : Prog.pred) : Prog.pred =
  match p with
  | Prog.True -> Prog.True
  | Prog.False -> Prog.False
  | Prog.Len_ge n -> Prog.Len_ge (n + off)
  | Prog.Len_lt n -> Prog.Len_lt (n + off)
  (* A payload read below byte 0 is out of range, not a header read. *)
  | Prog.Byte_eq (o, _) | Prog.Byte_in (o, _, _) when o < 0 -> Prog.False
  | Prog.Byte_eq (o, c) -> Prog.Byte_eq (o + off, c)
  | Prog.Byte_in (o, lo, hi) -> Prog.Byte_in (o + off, lo, hi)
  | Prog.Prefix s ->
      Prog.All
        (Prog.Len_ge (off + String.length s)
        :: List.init (String.length s) (fun i -> Prog.Byte_eq (off + i, s.[i])))
  | Prog.Hash_mod (o, l, m, tgt) ->
      (* A payload hash starts at byte 0 at the earliest. *)
      Prog.Hash_mod (off + Int.max 0 o, l + Int.min 0 o, m, tgt)
  | Prog.All ps -> Prog.All (List.map (shift_pred off) ps)
  | Prog.Any ps -> Prog.Any (List.map (shift_pred off) ps)
  | Prog.Not p -> Prog.Not (shift_pred off p)

(* Ethertype IPv4 (0x0800), IP protocol UDP (17), destination [port]. *)
let udp_port_match port =
  Prog.All
    [
      Prog.Byte_eq (Frame.ethertype_off, '\x08');
      Prog.Byte_eq (Frame.ethertype_off + 1, '\x00');
      Prog.Byte_eq (Frame.ip_proto_off, '\x11');
      Prog.Byte_eq (Frame.dst_port_off, Char.chr ((port lsr 8) land 0xff));
      Prog.Byte_eq (Frame.dst_port_off + 1, Char.chr (port land 0xff));
    ]

let shift_key off (k : Prog.key) : Prog.key =
  match k with
  | Prog.K_bytes (o, l) -> Prog.K_bytes (o + off, l)
  | Prog.K_rest o -> Prog.K_rest (o + off)

let rec shift_action off (a : Prog.action) : Prog.action =
  match a with
  | Prog.Pass | Prog.Drop | Prog.Rewrite _ -> a
  | Prog.Respond r ->
      Prog.Respond
        {
          r with
          Prog.r_key = shift_key off r.Prog.r_key;
          Prog.r_on_miss = shift_action off r.Prog.r_on_miss;
        }

let shift_stage port (st : Prog.stage) : Prog.stage =
  {
    Prog.guard =
      Prog.All
        [ udp_port_match port; shift_pred Frame.udp_payload_off st.Prog.guard ];
    Prog.act = shift_action Frame.udp_payload_off st.Prog.act;
  }

(* An offloaded filter drops the frames on its port that fail it. *)
let filter_stage (port, pred) : Prog.stage =
  {
    Prog.guard =
      Prog.All
        [
          udp_port_match port;
          Prog.Not (shift_pred Frame.udp_payload_off pred);
        ];
    Prog.act = Prog.Drop;
  }

let rebuild_device_program t =
  match t.stack with
  | None -> ()
  | Some stack ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) t.device_pipelines
      in
      let program =
        List.map filter_stage t.device_filters
        @ List.concat_map
            (fun (port, stages) -> List.map (shift_stage port) stages)
            sorted
      in
      ignore (Dk_device.Nic.set_rx_pipeline (Stack.nic stack) program)

let try_offload_filter t qd pred =
  match (t.stack, lookup t qd, Itbl.find_opt t.socks qd) with
  | Some stack, Some impl, Some { port = Some port; _ }
    when impl.Qimpl.kind = "udp"
         && Dk_device.Nic.programmable (Stack.nic stack) ->
      t.device_filters <- (port, pred) :: t.device_filters;
      rebuild_device_program t;
      Some impl
  | _ -> None

let filter t qd pred =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some parent -> (
      match try_offload_filter t qd pred with
      | Some impl ->
          (* Device-filtered: elements are dropped before they reach the
             host, so the queue itself is the filtered queue. The socket
             identity (port, peer) moves to the new descriptor. *)
          let qd' = install t impl in
          Itbl.replace t.offloaded qd' ();
          Itbl.remove t.qds qd;
          (match Itbl.find_opt t.socks qd with
          | Some meta ->
              Itbl.remove t.socks qd;
              Itbl.replace t.socks qd' meta
          | None -> ());
          Ok qd'
      | None ->
          let payload_pred sga =
            Dk_device.Prog.eval_pred pred (Dk_mem.Sga.to_string sga)
          in
          Ok
            (install t
               (Compose.filter ~tokens:t.tokens ~engine:t.engine ~parent
                  ~pred:payload_pred ~elem_cost:(prog_filter_cost t pred))))

let filter_fn t qd fn =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some parent ->
      let elem_cost sga =
        Dk_sim.Cost.filter_cpu_ns t.cost (Dk_mem.Sga.length sga)
      in
      Ok
        (install t
           (Compose.filter ~tokens:t.tokens ~engine:t.engine ~parent ~pred:fn
              ~elem_cost))

let map t qd prog =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some parent ->
      let fn sga =
        Dk_mem.Sga.of_string
          (Dk_device.Prog.eval_map prog (Dk_mem.Sga.to_string sga))
      in
      let elem_cost sga =
        Dk_sim.Cost.filter_cpu_ns t.cost
          (Dk_device.Prog.map_footprint prog (Dk_mem.Sga.length sga))
      in
      Ok
        (install t
           (Compose.map ~tokens:t.tokens ~engine:t.engine ~parent ~fn ~elem_cost))

let map_fn t qd fn =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some parent ->
      let elem_cost sga =
        Dk_sim.Cost.filter_cpu_ns t.cost (Dk_mem.Sga.length sga)
      in
      Ok
        (install t
           (Compose.map ~tokens:t.tokens ~engine:t.engine ~parent ~fn ~elem_cost))

let sort t qd higher_priority =
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some parent ->
      Ok
        (install t
           (Compose.sort ~tokens:t.tokens ~engine:t.engine ~parent
              ~higher_priority))

let steer t qd ~ways ~hash_off ~hash_len =
  if ways <= 0 then invalid_arg "Demi.steer: ways must be positive";
  match lookup t qd with
  | None -> Error `Bad_qd
  | Some parent ->
      (* Classification runs on the CPU: the filter-evaluation cost of
         the hashed range, per element. *)
      let classify_cost = Dk_sim.Cost.filter_cpu_ns t.cost hash_len in
      let outs = Array.init ways (fun _ -> Memq.create t.tokens) in
      let way_of sga =
        let s = Dk_mem.Sga.to_string sga in
        (* find the matching partition; Hash_mod partitions exactly *)
        let rec find i =
          if i >= ways then 0
          else if
            Dk_device.Prog.eval_pred (Prog.Hash_mod (hash_off, hash_len, ways, i)) s
          then i
          else find (i + 1)
        in
        find 0
      in
      Compose.pump ~tokens:t.tokens ~parent
        ~on_elem:(fun sga ->
          Engine.consume t.engine classify_cost;
          Mailbox.deliver (Memq.mailbox outs.(way_of sga)) (Types.Popped sga))
        ~on_done:(fun _ ->
          Array.iter (fun m -> Mailbox.close (Memq.mailbox m)) outs);
      Ok (Array.to_list (Array.map (fun m -> install t (Memq.impl m)) outs))

let qconnect t ~src ~dst =
  with_two t src dst (fun s d ->
      Compose.qconnect ~tokens:t.tokens ~src:s ~dst:d;
      Ok ())

let filter_offloaded t qd = Itbl.mem t.offloaded qd

let offload_udp_pipeline t qd stages =
  match (t.stack, lookup t qd, Itbl.find_opt t.socks qd) with
  | _, None, _ -> Error `Bad_qd
  | Some stack, Some impl, Some { proto = `Udp; port = Some port; _ }
    when impl.Qimpl.kind = "udp"
         && Dk_device.Nic.programmable (Stack.nic stack) ->
      t.device_pipelines <-
        (port, stages)
        :: List.filter (fun (p, _) -> p <> port) t.device_pipelines;
      rebuild_device_program t;
      Ok ()
  | _, Some _, _ -> Error `Not_supported

(* The kv GET hot-path pipeline, payload level: a datagram starting
   with 'G' is a GET whose key is the rest of the payload; answer hits
   as "+" ^ value (byte-identical to the host's Value reply under the
   UDP codec), pass misses — and everything that is not a GET — to the
   host. *)
let get_pipeline ~max_value : Prog.pipeline =
  [
    {
      Prog.guard = Prog.All [ Prog.Len_ge 1; Prog.Byte_eq (0, 'G') ];
      Prog.act =
        Prog.Respond
          {
            Prog.r_key = Prog.K_rest 1;
            Prog.r_hit_prefix = "+";
            Prog.r_max_value = max_value;
            Prog.r_on_miss = Prog.Pass;
          };
    };
  ]

let offload_udp_get t qd ?obs_prefix ?(capacity = 4096) ?(max_value = 4096)
    () =
  match t.stack with
  | None -> Error `Not_supported
  | Some stack -> (
      match
        Dk_device.Nic.offload_enable (Stack.nic stack) ?obs_prefix ~capacity
          ~max_value ()
      with
      | Error `Not_programmable -> Error `Not_supported
      | Ok _ -> offload_udp_pipeline t qd (get_pipeline ~max_value))

(* Host -> device control-queue wrappers: the sanctioned path for table
   writes (dk-lint `offload-site`). Each completes on the device before
   returning — see [Nic.ctrl_insert]. *)

let offload_insert t k v =
  match t.stack with
  | None -> Error `Rejected
  | Some stack -> Dk_device.Nic.ctrl_insert (Stack.nic stack) k v

let offload_update t k v =
  match t.stack with
  | None -> false
  | Some stack -> Dk_device.Nic.ctrl_update (Stack.nic stack) k v

let offload_invalidate t k =
  match t.stack with
  | None -> false
  | Some stack -> Dk_device.Nic.ctrl_invalidate (Stack.nic stack) k

let offload_stats t =
  match t.stack with
  | None -> None
  | Some stack ->
      Option.map Dk_device.Table.stats
        (Dk_device.Nic.offload_table (Stack.nic stack))

let pipeline_cpu_ns t p len =
  Dk_sim.Cost.filter_cpu_ns t.cost (Prog.pipeline_footprint p len)
