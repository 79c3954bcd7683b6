type stats = {
  frames_in : int;
  frames_out : int;
  decode_errors : int;
  not_for_us : int;
  no_listener : int;
}

type listener = { on_accept : Tcp.conn -> unit }

module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics
module Itbl = Dk_util.Itbl
module Eth = Dk_wire.Eth
module Ipv4 = Dk_wire.Ipv4
module Udp = Dk_wire.Udp
module Tcp_wire = Dk_wire.Tcp_wire
module Frame = Dk_wire.Frame

(* Class-wide obs instruments (aggregated across stacks); each stack
   counts its [stats] into its own instances of the first five. *)
let m_frames_in = Metrics.counter "net.stack.frames_in"
let m_frames_out = Metrics.counter "net.stack.frames_out"
let m_decode_errors = Metrics.counter "net.stack.decode_errors"
let m_no_listener = Metrics.counter "net.stack.no_listener"
let m_not_for_us = Metrics.counter "net.stack.not_for_us"
let m_checksum_failures = Metrics.counter "net.stack.checksum_failures"
let m_arp_requests = Metrics.counter "net.arp.requests"
let m_arp_misses = Metrics.counter "net.arp.misses"
let m_arp_abandoned = Metrics.counter "net.arp.abandoned"
let m_arp_recovered = Metrics.counter "net.arp.recovered"

type t = {
  engine : Dk_sim.Engine.t;
  cost : Dk_sim.Cost.t;
  pkt_cost : int64;
  nic : Dk_device.Nic.t;
  ip : Addr.ip;
  tcp_config : Tcp.config;
  arp : Arp.Table.table;
  udp_ports : (src:Addr.endpoint -> string -> unit) Itbl.t;
  listeners : listener Itbl.t;
  (* TCP demux, two levels of int-keyed tables: packed
     (local_port, remote_port) -> remote_ip -> conn. A single table
     keyed by the (local_port, remote_ip, remote_port) triple would
     allocate the key tuple and hash it polymorphically on every
     delivered segment (dk-hot: hot-poly). Ports are 16-bit so the pair
     packs into one immediate int; the remote IP keys the inner
     table. *)
  conns : Tcp.conn Itbl.t Itbl.t;
  mutable next_ephemeral : int;
  mutable next_ident : int;
  mutable iss_counter : int;
  mutable rx_process : Dk_sim.Engine.timer; (* runs [process]; see [create] *)
  frames_in : Metrics.counter;
  frames_out : Metrics.counter;
  decode_errors : Metrics.counter;
  not_for_us : Metrics.counter;
  no_listener : Metrics.counter;
}

(* Big-endian fields wider than Stdlib's 16-bit accessors. *)
let get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffff_ffff
let get_u48 b i = (Bytes.get_uint16_be b i lsl 32) lor get_u32 b (i + 2)

let engine t = t.engine
let ip t = t.ip
let mac t = Dk_device.Nic.mac t.nic
let nic t = t.nic

let connections t =
  Itbl.fold (fun _ by_ip acc -> acc + Itbl.length by_ip) t.conns 0

let stats t =
  {
    frames_in = Metrics.value t.frames_in;
    frames_out = Metrics.value t.frames_out;
    decode_errors = Metrics.value t.decode_errors;
    not_for_us = Metrics.value t.not_for_us;
    no_listener = Metrics.value t.no_listener;
  }

(* A decode failure counts once; checksum failures — corruption the
   hardware would normally have caught — also count separately. Every
   checksum message, and no other, ends with "checksum". *)
let decode_error t msg =
  Metrics.incr t.decode_errors;
  if String.ends_with ~suffix:"checksum" msg then begin
    Metrics.incr m_checksum_failures;
    if
      Flight.start Flight.default ~now:(Dk_sim.Engine.now t.engine)
        Flight.Drop
    then begin
      Flight.add_string Flight.default "stack ";
      Flight.add_hex Flight.default t.ip;
      Flight.add_string Flight.default ": ";
      Flight.add_string Flight.default msg;
      Flight.commit Flight.default
    end
  end

(* ---- transmit path ----

   A frame is one buffer from its first header to its last payload
   byte, laid out as [Frame] says. The stack builds it in place: the
   payload goes in once at its final offset, then each layer writes its
   header in front of it. Receive runs each layer's check on the same
   buffer and reads the fields it needs there, at [Frame]'s offsets. *)

let transmit_eth t ~dst_mac ~ethertype frame =
  Dk_sim.Engine.consume t.engine t.pkt_cost;
  Metrics.incr t.frames_out;
  Eth.write frame ~dst:dst_mac ~src:(mac t) ethertype;
  (* The NIC owns the frame from here on; nothing writes to it again. *)
  ignore
    (Dk_device.Nic.transmit t.nic ~dst:dst_mac (Bytes.unsafe_to_string frame))

let send_arp t ~dst_mac pkt =
  let frame = Bytes.create (Frame.ip_off + Arp.size) in
  Arp.write frame ~off:Frame.ip_off pkt;
  transmit_eth t ~dst_mac ~ethertype:Eth.arp frame

let send_arp_request t target_ip =
  Metrics.incr m_arp_requests;
  send_arp t ~dst_mac:Addr.mac_broadcast
    {
      Arp.op = Arp.Request;
      sender_mac = mac t;
      sender_ip = t.ip;
      target_mac = 0;
      target_ip;
    }

let arp_retry_ns = 200_000L
let arp_max_attempts = 5

(* An ARP miss: run [k dst_mac] once [dst_ip] resolves; datagrams
   issued during resolution wait in the ARP pending queue. Requests are
   retried a few times; on give-up the queued traffic is dropped (upper
   layers retransmit) so a later send can start a fresh resolution
   round. *)
let when_resolved t dst_ip k =
  Metrics.incr m_arp_misses;
  let first = Arp.Table.enqueue_pending t.arp dst_ip k in
  if first then begin
    let rec attempt n =
      if Arp.Table.lookup t.arp dst_ip = None then
        if n = 0 then begin
          let dropped = Arp.Table.drop_pending t.arp dst_ip in
          Metrics.incr m_arp_abandoned;
          if
            Flight.start Flight.default ~now:(Dk_sim.Engine.now t.engine)
              Flight.Drop
          then begin
            Flight.add_string Flight.default "arp gave up on ";
            Flight.add_hex Flight.default dst_ip;
            Flight.add_string Flight.default " after ";
            Flight.add_int Flight.default arp_max_attempts;
            Flight.add_string Flight.default " tries (";
            Flight.add_int Flight.default dropped;
            Flight.add_string Flight.default " queued sends dropped)";
            Flight.commit Flight.default
          end
        end
        else begin
          send_arp_request t dst_ip;
          ignore
            (Dk_sim.Engine.after t.engine arp_retry_ns (fun () ->
                 attempt (n - 1)))
        end
    in
    attempt arp_max_attempts
  end

(* [frame] already holds the transport header and payload from
   [Frame.l4_off] to its end. *)
let send_ipv4 t ~dst_ip ~proto frame =
  let ident = t.next_ident in
  t.next_ident <- (t.next_ident + 1) land 0xffff;
  Ipv4.write frame ~off:Frame.ip_off ~src:t.ip ~dst:dst_ip ~proto ~ttl:64 ~ident
    ~payload_len:(Bytes.length frame - Frame.l4_off);
  match Arp.Table.lookup t.arp dst_ip with
  | Some dst_mac -> transmit_eth t ~dst_mac ~ethertype:Eth.ipv4 frame
  | None ->
      when_resolved t dst_ip (fun dst_mac ->
          transmit_eth t ~dst_mac ~ethertype:Eth.ipv4 frame)

(* ---- UDP ---- *)

let udp_bind t ~port ~recv =
  if Itbl.mem t.udp_ports port then Error `In_use
  else begin
    Itbl.replace t.udp_ports port recv;
    Ok ()
  end

let udp_unbind t ~port = Itbl.remove t.udp_ports port

let udp_send t ~src_port ~dst payload =
  let n = String.length payload in
  if n > Frame.udp_max_payload then Error `Too_big
  else begin
    let frame = Bytes.create (Frame.udp_payload_off + n) in
    Bytes.blit_string payload 0 frame Frame.udp_payload_off n;
    Udp.write frame ~off:Frame.l4_off ~src_ip:t.ip ~dst_ip:dst.Addr.ip ~src_port
      ~dst_port:dst.Addr.port ~payload_len:n;
    send_ipv4 t ~dst_ip:dst.Addr.ip ~proto:Ipv4.udp frame;
    Ok ()
  end

(* ---- TCP ---- *)

let next_iss t =
  t.iss_counter <- (t.iss_counter + 64007) land 0xffffffff;
  t.iss_counter

let port_key ~local_port ~remote_port = (local_port lsl 16) lor remote_port

let find_conn t ~local_port ~remote_ip ~remote_port =
  match Itbl.find_opt t.conns (port_key ~local_port ~remote_port) with
  | Some by_ip -> Itbl.find_opt by_ip remote_ip
  | None -> None

let register_conn t ~local_port ~remote conn =
  let pk = port_key ~local_port ~remote_port:remote.Addr.port in
  let by_ip =
    match Itbl.find_opt t.conns pk with
    | Some h -> h
    | None ->
        let h = Itbl.create 4 in
        Itbl.add t.conns pk h;
        h
  in
  Itbl.replace by_ip remote.Addr.ip conn;
  Tcp.set_internal_teardown conn (fun _ ->
      match Itbl.find_opt t.conns pk with
      | Some h -> Itbl.remove h remote.Addr.ip
      | None -> ())

(* A data segment arrives in the frame TCP sized for it (payload at
   [Frame.tcp_payload_off]); a control segment gets a header-only frame. *)
let tcp_emit t ~local_port ~remote_ip ~remote_port ~seq ~ack_seq ~flags
    ~window frame len =
  let frame = if len = 0 then Bytes.create Frame.tcp_payload_off else frame in
  Tcp_wire.write frame ~off:Frame.l4_off ~src_ip:t.ip ~dst_ip:remote_ip
    ~src_port:local_port ~dst_port:remote_port ~seq ~ack_seq ~flags ~window
    ~payload_len:len;
  send_ipv4 t ~dst_ip:remote_ip ~proto:Ipv4.tcp frame

(* A connection's [emit]: the closure holds both ports and the peer's
   address, so TCP hands over only the per-segment fields. *)
let conn_emit t ~local_port ~remote_ip ~remote_port : Tcp.emit =
 fun ~seq ~ack_seq ~flags ~window frame len ->
  tcp_emit t ~local_port ~remote_ip ~remote_port ~seq ~ack_seq ~flags ~window
    frame len

let tcp_listen t ~port ~on_accept =
  if Itbl.mem t.listeners port then Error `In_use
  else begin
    Itbl.replace t.listeners port { on_accept };
    Ok ()
  end

let tcp_unlisten t ~port = Itbl.remove t.listeners port

let alloc_ephemeral t =
  let start = t.next_ephemeral in
  let rec loop p =
    let candidate = 49152 + ((p - 49152) mod 16384) in
    if Itbl.mem t.listeners candidate then loop (candidate + 1)
    else begin
      t.next_ephemeral <- candidate + 1;
      candidate
    end
  in
  loop start

let tcp_connect t ~dst =
  let local_port = alloc_ephemeral t in
  let local = Addr.endpoint t.ip local_port in
  let conn =
    Tcp.create_active ~engine:t.engine ~config:t.tcp_config ~local ~remote:dst
      ~iss:(next_iss t) ~payload_off:Frame.tcp_payload_off
      ~emit:
        (conn_emit t ~local_port ~remote_ip:dst.Addr.ip
           ~remote_port:dst.Addr.port)
  in
  register_conn t ~local_port ~remote:dst conn;
  conn

(* A segment for which no connection exists: answer with RST so active
   opens to dead ports fail fast. *)
let send_rst t ~remote_ip ~local_port ~remote_port ~seq ~ack_seq ~flags ~len =
  if flags land Tcp_wire.rst = 0 then
    tcp_emit t ~local_port ~remote_ip ~remote_port ~seq:ack_seq
      ~ack_seq:((seq + len + 1) land 0xffffffff)
      ~flags:(Tcp_wire.rst lor Tcp_wire.ack) ~window:0 Bytes.empty 0

let handle_tcp t ~src_ip frame ~len =
  match Tcp_wire.check ~src_ip ~dst_ip:t.ip frame ~off:Frame.l4_off ~len with
  | Some e -> decode_error t e
  | None -> (
      let local_port = Bytes.get_uint16_be frame Frame.dst_port_off in
      let remote_port = Bytes.get_uint16_be frame Frame.src_port_off in
      let seq = get_u32 frame Frame.tcp_seq_off in
      let ack_seq = get_u32 frame Frame.tcp_ack_off in
      let flags = Bytes.get_uint8 frame Frame.tcp_flags_off in
      let len = len - Tcp_wire.header_size in
      match find_conn t ~local_port ~remote_ip:src_ip ~remote_port with
      | Some conn ->
          Tcp.segment_arrives conn ~seq ~ack_seq ~flags
            ~window:(Bytes.get_uint16_be frame Frame.tcp_window_off)
            frame ~off:Frame.tcp_payload_off ~len
      | None -> (
          match Itbl.find_opt t.listeners local_port with
          | Some l
            when flags land Tcp_wire.syn <> 0 && flags land Tcp_wire.ack = 0 ->
              let remote = Addr.endpoint src_ip remote_port in
              let conn =
                Tcp.create_passive ~engine:t.engine ~config:t.tcp_config
                  ~local:(Addr.endpoint t.ip local_port) ~remote
                  ~iss:(next_iss t) ~payload_off:Frame.tcp_payload_off
                  ~emit:(conn_emit t ~local_port ~remote_ip:src_ip ~remote_port)
                  ~remote_seq:seq
              in
              register_conn t ~local_port ~remote conn;
              Tcp.set_on_connect conn (fun () -> l.on_accept conn)
          | Some _ | None ->
              Metrics.incr t.no_listener;
              send_rst t ~remote_ip:src_ip ~local_port ~remote_port ~seq
                ~ack_seq ~flags ~len))

(* ---- receive path ---- *)

let handle_arp t frame =
  match
    Arp.decode frame ~off:Frame.ip_off
      ~len:(Bytes.length frame - Frame.ip_off)
  with
  | Error e -> decode_error t e
  | Ok { Arp.op; sender_mac; sender_ip; target_ip; _ } -> (
      (* Learn the sender either way. *)
      let recovered = Arp.Table.resolve_pending t.arp sender_ip sender_mac in
      if recovered > 0 then Metrics.add m_arp_recovered recovered;
      match op with
      | Arp.Request when target_ip = t.ip ->
          send_arp t ~dst_mac:sender_mac
            {
              Arp.op = Arp.Reply;
              sender_mac = mac t;
              sender_ip = t.ip;
              target_mac = sender_mac;
              target_ip = sender_ip;
            }
      | Arp.Request | Arp.Reply -> ())

(* The one copy a datagram's payload makes on receive: out of the frame
   for the socket's callback. *)
let handle_udp t ~src_ip frame ~len =
  match Udp.check ~src_ip ~dst_ip:t.ip frame ~off:Frame.l4_off ~len with
  | Some e -> decode_error t e
  | None -> (
      match
        Itbl.find_opt t.udp_ports (Bytes.get_uint16_be frame Frame.dst_port_off)
      with
      | Some recv ->
          recv
            ~src:
              (Addr.endpoint src_ip
                 (Bytes.get_uint16_be frame Frame.src_port_off))
            (Bytes.sub_string frame Frame.udp_payload_off
               (Bytes.get_uint16_be frame Frame.udp_len_off - Udp.header_size))
      | None -> Metrics.incr t.no_listener)

let handle_ipv4 t frame =
  match
    Ipv4.check frame ~off:Frame.ip_off ~len:(Bytes.length frame - Frame.ip_off)
  with
  | Some e -> decode_error t e
  | None ->
      if get_u32 frame Frame.ip_dst_off <> t.ip then Metrics.incr t.not_for_us
      else
        let src_ip = get_u32 frame Frame.ip_src_off in
        let len = Bytes.get_uint16_be frame Frame.ip_len_off - Ipv4.header_size in
        let proto = Bytes.get_uint8 frame Frame.ip_proto_off in
        if proto = Ipv4.udp then handle_udp t ~src_ip frame ~len
        else if proto = Ipv4.tcp then handle_tcp t ~src_ip frame ~len
        else decode_error t "ipv4: unknown protocol"

let handle_frame t frame =
  Metrics.incr t.frames_in;
  Dk_sim.Engine.consume t.engine t.pkt_cost;
  (* Receive only reads the frame, which the sender's NIC handed over. *)
  let frame = Bytes.unsafe_of_string frame in
  match Eth.check frame with
  | Some e -> decode_error t e
  | None ->
      let dst = get_u48 frame Frame.dst_mac_off in
      if dst <> mac t && dst <> Addr.mac_broadcast then
        Metrics.incr t.not_for_us
      else
        let ethertype = Bytes.get_uint16_be frame Frame.ethertype_off in
        if ethertype = Eth.ipv4 then handle_ipv4 t frame
        else if ethertype = Eth.arp then handle_arp t frame
        else decode_error t "eth: unknown ethertype"

let rec process t =
  match Dk_device.Nic.poll_rx t.nic with
  | None -> ()
  | Some frame ->
      handle_frame t frame;
      process t

let schedule_process t =
  if not (Dk_sim.Engine.scheduled t.rx_process) then
    Dk_sim.Engine.rearm t.rx_process 0L

let create ~engine ~cost ~nic ~ip ?(tcp_config = Tcp.default_config)
    ?pkt_cost () =
  let pkt_cost =
    Option.value ~default:cost.Dk_sim.Cost.user_net_per_pkt pkt_cost
  in
  let t =
    {
      engine;
      cost;
      pkt_cost;
      nic;
      ip;
      tcp_config;
      arp = Arp.Table.create ();
      udp_ports = Itbl.create 8;
      listeners = Itbl.create 8;
      conns = Itbl.create 32;
      next_ephemeral = 49152;
      next_ident = 1;
      iss_counter = ip land 0xffff;
      rx_process = Dk_sim.Engine.timer engine ignore;
      frames_in = Metrics.instance m_frames_in;
      frames_out = Metrics.instance m_frames_out;
      decode_errors = Metrics.instance m_decode_errors;
      not_for_us = Metrics.instance m_not_for_us;
      no_listener = Metrics.instance m_no_listener;
    }
  in
  t.rx_process <- Dk_sim.Engine.timer engine (fun () -> process t);
  Dk_device.Nic.set_rx_notify nic (fun () -> schedule_process t);
  (* The device answers only requests this stack would take. *)
  Dk_device.Nic.set_ip nic ip;
  t
