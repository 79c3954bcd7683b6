(* Tests for dk_net: codec roundtrips, ARP, UDP, the TCP state machine
   end-to-end over the simulated fabric (including loss), and framing. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Engine = Dk_sim.Engine
module Cost = Dk_sim.Cost
module Nic = Dk_device.Nic
module Fabric = Dk_device.Fabric
module Fault = Dk_fault.Fault
module Addr = Dk_net.Addr
module Eth = Dk_wire.Eth
module Arp = Dk_net.Arp
module Ipv4 = Dk_wire.Ipv4
module Udp = Dk_wire.Udp
module Tcp_wire = Dk_wire.Tcp_wire
module Frame = Dk_wire.Frame
module Tcp = Dk_net.Tcp
module Stack = Dk_net.Stack
module Framing = Dk_net.Framing

let cost = Cost.default

(* ---------------- Addr ---------------- *)

let addr_ip_roundtrip () =
  let ip = Addr.ip_of_string "10.1.2.3" in
  check_str "roundtrip" "10.1.2.3" (Addr.ip_to_string ip);
  check_str "max" "255.255.255.255"
    (Addr.ip_to_string (Addr.ip_of_string "255.255.255.255"));
  Alcotest.check_raises "bad" (Invalid_argument "Addr.ip_of_string") (fun () ->
      ignore (Addr.ip_of_string "1.2.3.400"))

let addr_endpoint () =
  let e = Addr.endpoint (Addr.ip_of_string "10.0.0.1") 80 in
  check_bool "equal" true (Addr.equal_endpoint e e);
  Alcotest.check_raises "bad port" (Invalid_argument "Addr.endpoint")
    (fun () -> ignore (Addr.endpoint 0 70000))

(* ---------------- Codecs ----------------

   Each layer writes its header in place inside a frame buffer; on
   receive its check validates the header there and the fields are read
   by offset. The payload is never copied between layers. *)

let get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffff_ffff
let get_u48 b i = (Bytes.get_uint16_be b i lsl 32) lor get_u32 b (i + 2)

let eth_roundtrip () =
  let payload = "the payload" in
  let b = Bytes.create (Eth.header_size + String.length payload) in
  Bytes.blit_string payload 0 b Eth.header_size (String.length payload);
  Eth.write b ~dst:0xaabbccddeeff ~src:0x112233445566 Eth.ipv4;
  match Eth.check b with
  | None ->
      check_int "dst" 0xaabbccddeeff (get_u48 b Frame.dst_mac_off);
      check_int "src" 0x112233445566 (get_u48 b Frame.src_mac_off);
      check_int "ethertype" Eth.ipv4 (Bytes.get_uint16_be b Frame.ethertype_off);
      check_str "payload" payload
        (Bytes.sub_string b Eth.header_size (String.length payload))
  | Some e -> Alcotest.fail e

let eth_short () =
  match Eth.check (Bytes.of_string "short") with
  | Some e -> check_str "error" "eth: frame too short" e
  | None -> Alcotest.fail "expected error"

let arp_roundtrip () =
  let t =
    { Arp.op = Arp.Request; sender_mac = 1; sender_ip = 2; target_mac = 3;
      target_ip = 4 }
  in
  let b = Bytes.create Arp.size in
  Arp.write b ~off:0 t;
  match Arp.decode b ~off:0 ~len:Arp.size with
  | Ok t' -> check_bool "equal" true (t = t')
  | Error e -> Alcotest.fail e

let ip a = Addr.ip_of_string a

(* An IPv4 packet around [payload], built in place at offset 0, so its
   fields sit at their offsets within the header (Ipv4's layout). *)
let ipv4_packet ~proto ~ident payload =
  let n = String.length payload in
  let b = Bytes.create (Ipv4.header_size + n) in
  Bytes.blit_string payload 0 b Ipv4.header_size n;
  Ipv4.write b ~off:0 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~proto
    ~ttl:64 ~ident ~payload_len:n;
  b

let ipv4_roundtrip () =
  let b = ipv4_packet ~proto:Ipv4.udp ~ident:42 "data!" in
  match Ipv4.check b ~off:0 ~len:(Bytes.length b) with
  | None ->
      check_int "src" (ip "10.0.0.1") (get_u32 b 12);
      check_int "dst" (ip "10.0.0.2") (get_u32 b 16);
      check_int "proto" Ipv4.udp (Bytes.get_uint8 b 9);
      check_int "ttl" 64 (Bytes.get_uint8 b 8);
      check_int "ident" 42 (Bytes.get_uint16_be b 4);
      check_str "payload" "data!"
        (Bytes.sub_string b Ipv4.header_size
           (Bytes.get_uint16_be b 2 - Ipv4.header_size))
  | Some e -> Alcotest.fail e

let ipv4_detects_corruption () =
  let enc = ipv4_packet ~proto:Ipv4.tcp ~ident:1 "x" in
  (* flip a bit in the destination address *)
  Bytes.set enc 17 (Char.chr (Char.code (Bytes.get enc 17) lxor 0x01));
  match Ipv4.check enc ~off:0 ~len:(Bytes.length enc) with
  | Some e -> check_str "error" "ipv4: bad header checksum" e
  | None -> Alcotest.fail "checksum should have caught the flip"

(* A UDP datagram around [payload], built in place at offset 0. *)
let udp_datagram ~src_ip ~dst_ip ~src_port ~dst_port payload =
  let n = String.length payload in
  let b = Bytes.create (Udp.header_size + n) in
  Bytes.blit_string payload 0 b Udp.header_size n;
  Udp.write b ~off:0 ~src_ip ~dst_ip ~src_port ~dst_port ~payload_len:n;
  b

let udp_roundtrip () =
  let src_ip = ip "10.0.0.1" and dst_ip = ip "10.0.0.2" in
  let b = udp_datagram ~src_ip ~dst_ip ~src_port:1234 ~dst_port:53 "query" in
  match Udp.check ~src_ip ~dst_ip b ~off:0 ~len:(Bytes.length b) with
  | None ->
      check_int "sport" 1234 (Bytes.get_uint16_be b 0);
      check_int "dport" 53 (Bytes.get_uint16_be b 2);
      check_str "payload" "query"
        (Bytes.sub_string b Udp.header_size
           (Bytes.get_uint16_be b 4 - Udp.header_size))
  | Some e -> Alcotest.fail e

let udp_checksum_binds_addresses () =
  let src_ip = ip "10.0.0.1" and dst_ip = ip "10.0.0.2" in
  let enc = udp_datagram ~src_ip ~dst_ip ~src_port:1 ~dst_port:2 "x" in
  (* checking against different addresses must fail: pseudo-header *)
  match
    Udp.check ~src_ip ~dst_ip:(ip "10.0.0.9") enc ~off:0
      ~len:(Bytes.length enc)
  with
  | Some e -> check_str "error" "udp: bad checksum" e
  | None -> Alcotest.fail "pseudo header not covered"

let tcp_wire_roundtrip () =
  let src_ip = ip "10.0.0.1" and dst_ip = ip "10.0.0.2" in
  let b = Bytes.create (Tcp_wire.header_size + 5) in
  Bytes.blit_string "hello" 0 b Tcp_wire.header_size 5;
  Tcp_wire.write b ~off:0 ~src_ip ~dst_ip ~src_port:5555 ~dst_port:80
    ~seq:0xfffffff0 ~ack_seq:77
    ~flags:(Tcp_wire.syn lor Tcp_wire.ack)
    ~window:8192 ~payload_len:5;
  match Tcp_wire.check ~src_ip ~dst_ip b ~off:0 ~len:(Bytes.length b) with
  | None ->
      check_int "sport" 5555 (Bytes.get_uint16_be b 0);
      check_int "dport" 80 (Bytes.get_uint16_be b 2);
      check_int "seq" 0xfffffff0 (get_u32 b 4);
      check_int "ack" 77 (get_u32 b 8);
      let flags = Bytes.get_uint8 b 13 in
      check_bool "syn" true (flags land Tcp_wire.syn <> 0);
      check_bool "ack flag" true (flags land Tcp_wire.ack <> 0);
      check_bool "fin" false (flags land Tcp_wire.fin <> 0);
      check_bool "rst" false (flags land Tcp_wire.rst <> 0);
      check_int "window" 8192 (Bytes.get_uint16_be b 14);
      check_str "payload" "hello"
        (Bytes.sub_string b Tcp_wire.header_size
           (Bytes.length b - Tcp_wire.header_size))
  | Some e -> Alcotest.fail e

(* Whole frames as the stack lays them out: 14 B Ethernet, 20 B IPv4,
   then the transport header and payload. *)
let ipv4_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto ~l4_hdr payload =
  let n = String.length payload in
  let b = Bytes.create (Frame.l4_off + l4_hdr + n) in
  Bytes.blit_string payload 0 b (Frame.l4_off + l4_hdr) n;
  Ipv4.write b ~off:Frame.ip_off ~src:src_ip ~dst:dst_ip ~proto ~ttl:64
    ~ident:0 ~payload_len:(l4_hdr + n);
  Eth.write b ~dst:dst_mac ~src:src_mac Eth.ipv4;
  b

let udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port payload =
  let b =
    ipv4_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto:Ipv4.udp
      ~l4_hdr:Udp.header_size payload
  in
  Udp.write b ~off:Frame.l4_off ~src_ip ~dst_ip ~src_port ~dst_port
    ~payload_len:(String.length payload);
  b

let tcp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~seq
    payload =
  let b =
    ipv4_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto:Ipv4.tcp
      ~l4_hdr:Tcp_wire.header_size payload
  in
  Tcp_wire.write b ~off:Frame.l4_off ~src_ip ~dst_ip ~src_port ~dst_port ~seq
    ~ack_seq:0 ~flags:Tcp_wire.ack ~window:8192
    ~payload_len:(String.length payload);
  b

let arp_frame ~src_mac ~dst_mac (pkt : Arp.t) =
  let b = Bytes.create (Frame.ip_off + Arp.size) in
  Arp.write b ~off:Frame.ip_off pkt;
  Eth.write b ~dst:dst_mac ~src:src_mac Eth.arp;
  b

let codec_roundtrip_prop =
  QCheck.Test.make ~name:"eth+ipv4+udp roundtrip any payload" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun payload ->
      let src_ip = ip "10.0.0.1" and dst_ip = ip "10.0.0.2" in
      let frame =
        udp_frame ~src_mac:1 ~dst_mac:2 ~src_ip ~dst_ip ~src_port:9
          ~dst_port:10 payload
      in
      Eth.check frame = None
      && Ipv4.check frame ~off:Frame.ip_off
           ~len:(Bytes.length frame - Frame.ip_off)
         = None
      && Udp.check ~src_ip ~dst_ip frame ~off:Frame.l4_off
           ~len:(Bytes.get_uint16_be frame Frame.ip_len_off - Ipv4.header_size)
         = None
      && String.equal
           (Bytes.sub_string frame Frame.udp_payload_off
              (Bytes.get_uint16_be frame Frame.udp_len_off - Udp.header_size))
           payload)

(* [Frame.udp_datagram_end] lands inside any bytes, a cut frame's
   included, and on a UDP frame followed by more bytes it lands where
   the payload the stack reads ends. *)
let udp_datagram_end_prop =
  QCheck.Test.make ~name:"udp datagram end total, at the payload's end"
    ~count:500
    QCheck.(
      quad (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 20))
        (string_of_size Gen.(0 -- 100)) small_nat)
    (fun (payload, trailing, junk, cut) ->
      let frame =
        Bytes.to_string
          (udp_frame ~src_mac:1 ~dst_mac:2 ~src_ip:(ip "10.0.0.1")
             ~dst_ip:(ip "10.0.0.2") ~src_port:9 ~dst_port:10 payload)
      in
      let within s =
        let e = Frame.udp_datagram_end s in
        0 <= e && e <= String.length s
      in
      within junk
      && within (String.sub frame 0 (cut mod (String.length frame + 1)))
      && Frame.udp_datagram_end (frame ^ trailing)
         = Frame.udp_payload_off + String.length payload)

(* ---------------- Two-host harness ---------------- *)

type host = { stack : Stack.t; addr : Addr.ip }

let two_hosts ?fault ?loss ?tcp_config () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost ?fault ?loss () in
  let make i addr_s =
    let nic = Nic.create ~engine ~cost ~mac:(Addr.mac_of_index i) () in
    Fabric.attach fabric nic;
    let addr = ip addr_s in
    let stack = Stack.create ~engine ~cost ~nic ~ip:addr ?tcp_config () in
    { stack; addr }
  in
  let a = make 1 "10.0.0.1" in
  let b = make 2 "10.0.0.2" in
  (engine, fabric, a, b)

(* ---------------- UDP over the stack ---------------- *)

let udp_send stack ~src_port ~dst payload =
  match Stack.udp_send stack ~src_port ~dst payload with
  | Ok () -> ()
  | Error `Too_big -> Alcotest.fail "datagram refused"

let udp_end_to_end () =
  let engine, _, a, b = two_hosts () in
  let got = ref None in
  (match
     Stack.udp_bind b.stack ~port:53 ~recv:(fun ~src payload ->
         got := Some (src, payload))
   with
  | Ok () -> ()
  | Error `In_use -> Alcotest.fail "bind failed");
  udp_send a.stack ~src_port:1111 ~dst:(Addr.endpoint b.addr 53) "ping";
  Engine.run engine;
  match !got with
  | Some (src, payload) ->
      check_str "payload" "ping" payload;
      check_bool "src ip" true (src.Addr.ip = a.addr);
      check_int "src port" 1111 src.Addr.port
  | None -> Alcotest.fail "datagram not delivered"

let udp_bind_conflict () =
  let _, _, a, _ = two_hosts () in
  let r1 = Stack.udp_bind a.stack ~port:7 ~recv:(fun ~src:_ _ -> ()) in
  let r2 = Stack.udp_bind a.stack ~port:7 ~recv:(fun ~src:_ _ -> ()) in
  check_bool "first ok" true (r1 = Ok ());
  check_bool "second in use" true (r2 = Error `In_use);
  Stack.udp_unbind a.stack ~port:7;
  check_bool "rebind ok" true
    (Stack.udp_bind a.stack ~port:7 ~recv:(fun ~src:_ _ -> ()) = Ok ())

let udp_no_listener_counted () =
  let engine, _, a, b = two_hosts () in
  udp_send a.stack ~src_port:1 ~dst:(Addr.endpoint b.addr 999) "lost";
  Engine.run engine;
  check_int "no_listener" 1 (Stack.stats b.stack).Stack.no_listener

let arp_resolution_once () =
  let engine, _, a, b = two_hosts () in
  ignore (Stack.udp_bind b.stack ~port:5 ~recv:(fun ~src:_ _ -> ()));
  (* two sends to the same destination: one ARP exchange only *)
  udp_send a.stack ~src_port:1 ~dst:(Addr.endpoint b.addr 5) "one";
  udp_send a.stack ~src_port:1 ~dst:(Addr.endpoint b.addr 5) "two";
  Engine.run engine;
  (* frames out of a: 1 arp request + 2 udp; frames out of b: 1 arp reply *)
  check_int "a sent 3 frames" 3 (Stack.stats a.stack).Stack.frames_out;
  check_int "b delivered both" 2
    ((Stack.stats b.stack).Stack.frames_in - 1 (* its arp request copy *))

(* The largest datagram a 16-bit IPv4 total length can carry is
   delivered; one byte more is refused before anything reaches the
   wire, so the peer never sees a frame whose length fields wrapped. *)
let udp_max_datagram () =
  let engine, _, a, b = two_hosts () in
  let got = ref [] in
  ignore
    (Stack.udp_bind b.stack ~port:9 ~recv:(fun ~src:_ p -> got := p :: !got));
  let dst = Addr.endpoint b.addr 9 in
  let biggest = String.init 65_507 (fun i -> Char.chr (i land 0xff)) in
  udp_send a.stack ~src_port:1 ~dst biggest;
  Engine.run engine;
  check_bool "65,507 B delivered intact" true (!got = [ biggest ]);
  let frames_out = (Stack.stats a.stack).Stack.frames_out in
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "%d B refused" n)
        true
        (Stack.udp_send a.stack ~src_port:1 ~dst (String.make n 'x')
        = Error `Too_big))
    [ 65_508; 70_000 ];
  Engine.run engine;
  check_int "nothing sent" frames_out (Stack.stats a.stack).Stack.frames_out;
  check_int "no decode errors" 0 (Stack.stats b.stack).Stack.decode_errors;
  check_int "one delivery" 1 (List.length !got)

(* ---------------- Fuzzing the rx frame boundary ----------------

   Frames built by the writers, then mutated, go straight into a live
   host's NIC. Every byte from the IPv4 header on is covered by the
   IPv4 or the transport checksum, so a single flipped bit there must
   never reach a socket; an unmutated frame must. A TCP data offset
   that claims options (TCP checksum recomputed, so the options check
   rather than the checksum sees it) must never reach the connection
   either. Lying length, IHL and ethertype fields (IPv4 header checksum
   recomputed, so the length guards rather than the checksum see them)
   and truncations only must not raise. *)

type fuzz_shape =
  | Raw of string
  | Tcp_data of string
  | Tcp_ack
  | Udp_dgram of string
  | Arp_request

type fuzz_lie = Total_length | Ihl | Udp_length | Ethertype | Tcp_offset

type fuzz_mutation =
  | Intact
  | Flip of int (* bit index, modulo the frame's length in bits *)
  | Cut of int (* index into the frame's header boundaries *)
  | Lie of fuzz_lie * int

let fuzz_case =
  let open QCheck.Gen in
  let shape =
    frequency
      [
        (1, map (fun s -> Raw s) (string_size (0 -- 1600)));
        (3, map (fun s -> Tcp_data s) (string_size (1 -- 1460)));
        (1, return Tcp_ack);
        (3, map (fun s -> Udp_dgram s) (string_size (0 -- 1472)));
        (1, return Arp_request);
      ]
  in
  let mutation =
    frequency
      [
        (2, return Intact);
        (4, map (fun i -> Flip i) nat);
        (2, map (fun i -> Cut i) nat);
        ( 2,
          map2
            (fun f v -> Lie (f, v))
            (oneofl [ Total_length; Ihl; Udp_length; Ethertype; Tcp_offset ])
            (0 -- 0xffff) );
      ]
  in
  QCheck.make
    ~print:(fun frames ->
      String.concat "; "
        (List.map
           (fun (shape, m) ->
             let shape =
               match shape with
               | Raw s -> Printf.sprintf "raw %d B" (String.length s)
               | Tcp_data s -> Printf.sprintf "tcp %d B" (String.length s)
               | Tcp_ack -> "tcp ack"
               | Udp_dgram s -> Printf.sprintf "udp %d B" (String.length s)
               | Arp_request -> "arp"
             in
             let m =
               match m with
               | Intact -> "intact"
               | Flip i -> Printf.sprintf "flip %d" i
               | Cut i -> Printf.sprintf "cut %d" i
               | Lie (f, v) ->
                   Printf.sprintf "%s=%d"
                     (match f with
                     | Total_length -> "total"
                     | Ihl -> "ihl"
                     | Udp_length -> "ulen"
                     | Ethertype -> "ethertype"
                     | Tcp_offset -> "doff")
                     v
             in
             shape ^ " " ^ m)
           frames))
    (list_size (1 -- 6) (pair shape mutation))

let fix_ipv4_checksum b =
  Bytes.set_uint16_be b (Frame.ip_off + 10) 0;
  Bytes.set_uint16_be b (Frame.ip_off + 10)
    (Dk_util.Checksum.compute b Frame.ip_off Ipv4.header_size)

(* The checksum of the TCP segment that fills [b] from [Frame.l4_off]. *)
let fix_tcp_checksum ~src_ip ~dst_ip b =
  let at = Frame.l4_off + 16 in
  Bytes.set_uint16_be b at 0;
  Bytes.set_uint16_be b at
    (Dk_util.Checksum.transport ~src:src_ip ~dst:dst_ip ~proto:6 b
       Frame.l4_off
       (Bytes.length b - Frame.l4_off))

let rx_fuzz_prop =
  QCheck.Test.make ~name:"rx frame boundary survives mutated frames" ~count:300
    fuzz_case (fun frames ->
      let engine, _, a, b = two_hosts () in
      let udp_got = ref [] in
      ignore
        (Stack.udp_bind b.stack ~port:53 ~recv:(fun ~src:_ p ->
             udp_got := p :: !udp_got));
      let server = ref None in
      ignore
        (Stack.tcp_listen b.stack ~port:80 ~on_accept:(fun c ->
             server := Some c));
      let client = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 80) in
      ignore (Engine.run_until engine (fun () -> !server <> None));
      Engine.run engine;
      let server = Option.get !server in
      let client_port = (Tcp.local client).Addr.port in
      let src_mac = Stack.mac a.stack and dst_mac = Stack.mac b.stack in
      let src_ip = a.addr and dst_ip = b.addr in
      let feed (shape, mutation) =
        let frame, l4_end =
          match shape with
          | Raw s -> (Bytes.of_string s, 0)
          | Tcp_data p ->
              ( tcp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip
                  ~src_port:client_port ~dst_port:80 ~seq:1000 p,
                Frame.l4_off + Tcp_wire.header_size )
          | Tcp_ack ->
              ( tcp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip
                  ~src_port:client_port ~dst_port:80 ~seq:1000 "",
                Frame.l4_off + Tcp_wire.header_size )
          | Udp_dgram p ->
              ( udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1
                  ~dst_port:53 p,
                Frame.l4_off + Udp.header_size )
          | Arp_request ->
              ( arp_frame ~src_mac ~dst_mac
                  {
                    Arp.op = Arp.Request;
                    sender_mac = src_mac;
                    sender_ip = src_ip;
                    target_mac = 0;
                    target_ip = dst_ip;
                  },
                Frame.ip_off + Arp.size )
        in
        let is_udp = match shape with Udp_dgram _ -> true | _ -> false in
        let is_tcp =
          match shape with Tcp_data _ | Tcp_ack -> true | _ -> false
        in
        let is_ipv4 =
          match shape with
          | Tcp_data _ | Tcp_ack | Udp_dgram _ -> true
          | Raw _ | Arp_request -> false
        in
        let len = Bytes.length frame in
        (* [lied_offset]: the TCP data offset claims options. *)
        let frame, flipped_checksummed, lied_offset =
          match mutation with
          | Intact -> (frame, false, false)
          | Flip i when len > 0 ->
              let bit = i mod (8 * len) in
              let byte = bit / 8 in
              Bytes.set frame byte
                (Char.chr
                   (Char.code (Bytes.get frame byte) lxor (1 lsl (bit mod 8))));
              (frame, is_ipv4 && byte >= Frame.ip_off, false)
          | Flip _ -> (frame, false, false)
          | Cut i -> (
              match shape with
              | Raw _ -> (Bytes.sub frame 0 (i mod (len + 1)), false, false)
              | _ ->
                  let cuts =
                    List.filter
                      (fun c -> c < len)
                      [ 0; Frame.ip_off - 1; Frame.ip_off; Frame.l4_off - 1;
                        Frame.l4_off; l4_end - 1; l4_end; len - 1 ]
                  in
                  (Bytes.sub frame 0 (List.nth cuts (i mod List.length cuts)),
                   false, false))
          | Lie (Ethertype, v) when len >= Frame.ip_off ->
              Bytes.set_uint16_be frame Frame.ethertype_off v;
              (frame, false, false)
          | Lie (Total_length, v) when is_ipv4 ->
              Bytes.set_uint16_be frame Frame.ip_len_off v;
              fix_ipv4_checksum frame;
              (frame, false, false)
          | Lie (Ihl, v) when is_ipv4 ->
              Bytes.set_uint8 frame Frame.ip_off (0x40 lor (v land 0xf));
              fix_ipv4_checksum frame;
              (frame, false, false)
          | Lie (Udp_length, v) when is_udp ->
              Bytes.set_uint16_be frame Frame.udp_len_off v;
              (frame, false, false)
          | Lie (Tcp_offset, v) when is_tcp ->
              (* The TCP checksum recomputed, so the options branch, not
                 the checksum, must turn the segment away. *)
              Bytes.set_uint8 frame (Frame.l4_off + 12) ((v land 0xf) lsl 4);
              fix_tcp_checksum ~src_ip ~dst_ip frame;
              (frame, false, v land 0xf <> 5)
          | Lie _ -> (frame, false, false)
        in
        let in_before = (Stack.stats b.stack).Stack.frames_in in
        let out_before = (Stack.stats b.stack).Stack.frames_out in
        let udp_before = !udp_got in
        let segs_before = (Tcp.stats server).Tcp.segs_received in
        Nic.receive (Stack.nic b.stack) (Bytes.to_string frame);
        Engine.run engine;
        let reached_socket =
          !udp_got != udp_before
          || (Tcp.stats server).Tcp.segs_received <> segs_before
        in
        let one_frame_in =
          (Stack.stats b.stack).Stack.frames_in = in_before + 1
        in
        let delivered_intact =
          match (shape, mutation) with
          | Udp_dgram p, Intact -> (
              match !udp_got with
              | got :: _ -> reached_socket && got = p
              | [] -> false)
          | (Tcp_data _ | Tcp_ack), Intact -> reached_socket
          | Arp_request, Intact ->
              (* answered: the reply is the only frame b sends *)
              (Stack.stats b.stack).Stack.frames_out = out_before + 1
          | _ -> true
        in
        one_frame_in && delivered_intact
        && not ((flipped_checksummed || lied_offset) && reached_socket)
      in
      List.for_all feed frames)

(* [Tcp_wire.check]'s three rejections in their order: a segment that
   is short, fails its checksum and claims options is "too short"; one
   that fails its checksum and claims options is "bad checksum"; one
   that only claims options is "options unsupported". Fed to a live
   host, each counts one decode error and goes no further (no RST, no
   listener lookup); only the checksum error also counts a checksum
   failure. *)
let tcp_check_errors () =
  let engine, _, a, b = two_hosts () in
  let src_ip = a.addr and dst_ip = b.addr in
  let segment () =
    let f =
      tcp_frame ~src_mac:(Stack.mac a.stack) ~dst_mac:(Stack.mac b.stack)
        ~src_ip ~dst_ip ~src_port:4000 ~dst_port:80 ~seq:1 "payload"
    in
    Bytes.set_uint8 f (Frame.l4_off + 12) 0x60;
    f
  in
  let options = segment () in
  fix_tcp_checksum ~src_ip ~dst_ip options;
  let checksum = segment () in
  let short = segment () in
  Bytes.set_uint16_be short Frame.ip_len_off
    (Ipv4.header_size + Tcp_wire.header_size - 1);
  fix_ipv4_checksum short;
  let counter name = Dk_obs.Metrics.value (Dk_obs.Metrics.counter name) in
  List.iter
    (fun (frame, len, expect, checksum_failure) ->
      check (Alcotest.option Alcotest.string) expect (Some expect)
        (Tcp_wire.check ~src_ip ~dst_ip frame ~off:Frame.l4_off ~len);
      let before = Stack.stats b.stack in
      let errors = counter "net.stack.decode_errors" in
      let failures = counter "net.stack.checksum_failures" in
      Nic.receive (Stack.nic b.stack) (Bytes.to_string frame);
      Engine.run engine;
      let after = Stack.stats b.stack in
      check_int (expect ^ ": decode errors") (before.Stack.decode_errors + 1)
        after.Stack.decode_errors;
      check_int (expect ^ ": class decode errors") (errors + 1)
        (counter "net.stack.decode_errors");
      check_int (expect ^ ": checksum failures")
        (failures + if checksum_failure then 1 else 0)
        (counter "net.stack.checksum_failures");
      check_int (expect ^ ": no listener") before.Stack.no_listener
        after.Stack.no_listener;
      check_int (expect ^ ": nothing sent") before.Stack.frames_out
        after.Stack.frames_out)
    [
      (short, Tcp_wire.header_size - 1, "tcp: too short", false);
      (checksum, Bytes.length checksum - Frame.l4_off, "tcp: bad checksum", true);
      ( options,
        Bytes.length options - Frame.l4_off,
        "tcp: options unsupported",
        false );
    ]

(* ---------------- TCP over the stack ---------------- *)

(* Attach a backpressure-aware echo loop to a server connection. *)
let echo_conn conn =
  let pending = ref "" in
  let flush () =
    if String.length !pending > 0 then begin
      let n = Tcp.send conn !pending in
      pending := String.sub !pending n (String.length !pending - n)
    end
  in
  Tcp.set_on_readable conn (fun () ->
      pending := !pending ^ Tcp.recv conn (Tcp.recv_ready conn);
      flush ());
  Tcp.set_on_writable conn flush

(* Run an echo server on [b]; connect from [a]; send [data]; wait for
   the echo. Returns (reply, client_conn, engine_time_ns). *)
let tcp_echo_roundtrip ?loss ?tcp_config data =
  let engine, _, a, b = two_hosts ?loss ?tcp_config () in
  let server_conn = ref None in
  (match
     Stack.tcp_listen b.stack ~port:7 ~on_accept:(fun c ->
         server_conn := Some c;
         echo_conn c)
   with
  | Ok () -> ()
  | Error `In_use -> Alcotest.fail "listen failed");
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 7) in
  let reply = Stdlib.Buffer.create (String.length data) in
  let remaining = ref data in
  let try_send () =
    if String.length !remaining > 0 then begin
      let n = Tcp.send conn !remaining in
      remaining := String.sub !remaining n (String.length !remaining - n)
    end
  in
  Tcp.set_on_connect conn try_send;
  Tcp.set_on_writable conn (fun () -> try_send ());
  Tcp.set_on_readable conn (fun () ->
      Stdlib.Buffer.add_string reply (Tcp.recv conn (Tcp.recv_ready conn)));
  let done_ () = Stdlib.Buffer.length reply >= String.length data in
  let finished = Engine.run_until engine done_ in
  check_bool "completed" true finished;
  (Stdlib.Buffer.contents reply, conn, !server_conn, Engine.now engine)

let tcp_connect_and_echo () =
  let reply, conn, _, _ = tcp_echo_roundtrip "hello tcp" in
  check_str "echoed" "hello tcp" reply;
  check_bool "established" true (Tcp.state conn = Tcp.Established)

let tcp_large_transfer () =
  (* Forces segmentation (> MSS), window management and send-buffer
     backpressure (200 KB through a 64 KB buffer). *)
  let data = String.init 200_000 (fun i -> Char.chr (i land 0xff)) in
  let reply, _, _, _ = tcp_echo_roundtrip data in
  check_int "length" (String.length data) (String.length reply);
  check_bool "bytes intact" true (String.equal data reply)

let tcp_loss_recovery () =
  (* 5% frame loss: retransmission must still deliver everything. The
     lost frames may be in either direction, so count retransmits on
     both connections. *)
  let data = String.init 60_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let reply, conn, server, _ = tcp_echo_roundtrip ~loss:0.05 data in
  check_bool "intact despite loss" true (String.equal data reply);
  let rtx =
    (Tcp.stats conn).Tcp.retransmits
    + match server with Some c -> (Tcp.stats c).Tcp.retransmits | None -> 0
  in
  check_bool "did retransmit" true (rtx > 0)

let tcp_loss_observed () =
  (* The retransmit/timeout path is wired through dk_obs: a lossy run
     must bump the class-wide retransmit counter and leave Retransmit
     events in the flight recorder — the libOS-side visibility the
     kernel lost (§2, "no packet ever enters the OS"). *)
  let m_rtx = Dk_obs.Metrics.counter "net.tcp.retransmits" in
  let m_lost = Dk_obs.Metrics.counter "device.fabric.lost" in
  let rtx_before = Dk_obs.Metrics.value m_rtx in
  let lost_before = Dk_obs.Metrics.value m_lost in
  Dk_obs.Flight.clear Dk_obs.Flight.default;
  let data = String.init 60_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let reply, conn, server, _ = tcp_echo_roundtrip ~loss:0.05 data in
  check_bool "intact despite loss" true (String.equal data reply);
  let conn_rtx =
    (Tcp.stats conn).Tcp.retransmits
    + match server with Some c -> (Tcp.stats c).Tcp.retransmits | None -> 0
  in
  let obs_rtx = Dk_obs.Metrics.value m_rtx - rtx_before in
  check_bool "obs counted retransmits" true (obs_rtx > 0);
  check_bool "obs covers both conns" true (obs_rtx >= conn_rtx);
  check_bool "obs counted fabric losses" true
    (Dk_obs.Metrics.value m_lost - lost_before > 0);
  let kinds =
    List.map
      (fun (e : Dk_obs.Flight.entry) -> Dk_obs.Flight.kind_name e.Dk_obs.Flight.kind)
      (Dk_obs.Flight.entries Dk_obs.Flight.default)
  in
  check_bool "flight saw a retransmit" true (List.mem "retransmit" kinds);
  check_bool "flight saw a drop" true (List.mem "drop" kinds)

let tcp_rtt_is_microseconds () =
  (* Figure-1 sanity: a kernel-bypass echo completes in ~ten microseconds
     of virtual time, not hundreds. *)
  let _, _, _, elapsed = tcp_echo_roundtrip "x" in
  check_bool "under 30us" true (Int64.compare elapsed 30_000L < 0)

let tcp_connect_refused () =
  let engine, _, a, b = two_hosts () in
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 81) in
  let closed = ref None in
  Tcp.set_on_close conn (fun r -> closed := Some r);
  Engine.run_for engine 1_000_000L;
  check_bool "reset" true (!closed = Some `Reset);
  check_bool "closed" true (Tcp.state conn = Tcp.Closed)

let tcp_graceful_close () =
  let engine, _, a, b = two_hosts () in
  let server_conn = ref None in
  ignore
    (Stack.tcp_listen b.stack ~port:7 ~on_accept:(fun c -> server_conn := Some c));
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 7) in
  ignore (Engine.run_until engine (fun () -> Tcp.state conn = Tcp.Established));
  Tcp.close conn;
  (* server sees CLOSE_WAIT then closes too *)
  ignore
    (Engine.run_until engine (fun () ->
         match !server_conn with
         | Some c -> Tcp.state c = Tcp.Close_wait
         | None -> false));
  (match !server_conn with
  | Some c -> Tcp.close c
  | None -> Alcotest.fail "no server conn");
  Engine.run engine;
  check_bool "client closed" true (Tcp.state conn = Tcp.Closed);
  (match !server_conn with
  | Some c -> check_bool "server closed" true (Tcp.state c = Tcp.Closed)
  | None -> ());
  (* both demux entries reaped *)
  check_int "a conns" 0 (Stack.connections a.stack);
  check_int "b conns" 0 (Stack.connections b.stack)

let tcp_send_before_established_rejected () =
  let _, _, a, b = two_hosts () in
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 7) in
  check_int "no bytes accepted" 0 (Tcp.send conn "early")

let tcp_abort_sends_rst () =
  let engine, _, a, b = two_hosts () in
  let server_conn = ref None in
  ignore
    (Stack.tcp_listen b.stack ~port:7 ~on_accept:(fun c -> server_conn := Some c));
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 7) in
  (* Wait for the *server* side to accept: it reaches ESTABLISHED one
     half-RTT after the client does. *)
  ignore (Engine.run_until engine (fun () -> !server_conn <> None));
  let server_reason = ref None in
  (match !server_conn with
  | Some c -> Tcp.set_on_close c (fun r -> server_reason := Some r)
  | None -> Alcotest.fail "no accept");
  Tcp.abort conn;
  Engine.run engine;
  check_bool "server saw reset" true (!server_reason = Some `Reset)

let tcp_many_connections () =
  let engine, _, a, b = two_hosts () in
  let accepted = ref 0 in
  ignore (Stack.tcp_listen b.stack ~port:7 ~on_accept:(fun _ -> incr accepted));
  let conns =
    List.init 20 (fun _ -> Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 7))
  in
  ignore (Engine.run_until engine (fun () -> !accepted >= 20));
  check_bool "all client conns established" true
    (List.for_all (fun c -> Tcp.state c = Tcp.Established) conns);
  check_int "all accepted" 20 !accepted;
  check_int "distinct client conns" 20 (Stack.connections a.stack)

(* ---------------- no timer outlives its connection ----------------

   Each connection owns one RTO handle. Every way a connection ends
   must leave it unqueued: a handle left armed would keep the engine
   from ever running dry. *)

(* An echo server on [b] and a client on [a] that has sent [data]. *)
let echo_pair ?fault data =
  let engine, _, a, b = two_hosts ?fault () in
  let server = ref None in
  ignore
    (Stack.tcp_listen b.stack ~port:7 ~on_accept:(fun c ->
         server := Some c;
         echo_conn c));
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 7) in
  ignore (Engine.run_until engine (fun () -> Tcp.state conn = Tcp.Established));
  check_int "sent" (String.length data) (Tcp.send conn data);
  (engine, conn, server)

(* Run until the engine is dry: a handle left armed fails the check
   after 10 s of virtual time instead of spinning forever. *)
let drains engine =
  check_bool "ran dry" false
    (Engine.run_until engine (fun () ->
         Int64.compare (Engine.now engine) 10_000_000_000L >= 0));
  check_int "nothing pending" 0 (Engine.pending engine)

let handle_ends_through_time_wait () =
  let data = "through time-wait" in
  let engine, conn, server = echo_pair data in
  ignore
    (Engine.run_until engine (fun () ->
         Tcp.recv_ready conn >= String.length data));
  Tcp.close conn;
  ignore
    (Engine.run_until engine (fun () ->
         match !server with
         | Some s -> Tcp.state s = Tcp.Close_wait
         | None -> false));
  Tcp.close (Option.get !server);
  check_bool "client reaches TIME_WAIT" true
    (Engine.run_until engine (fun () -> Tcp.state conn = Tcp.Time_wait));
  drains engine;
  check_bool "client closed" true (Tcp.state conn = Tcp.Closed);
  check_bool "server closed" true (Tcp.state (Option.get !server) = Tcp.Closed)

let handle_ends_on_rst () =
  (* 20,000 B in flight: the RTO is queued when the client aborts. *)
  let engine, conn, server = echo_pair (String.make 20_000 'r') in
  check_bool "server accepted" true
    (Engine.run_until engine (fun () -> !server <> None));
  let reason = ref None in
  Tcp.set_on_close (Option.get !server) (fun r -> reason := Some r);
  let rto_fired () =
    Dk_obs.Metrics.value (Dk_obs.Metrics.counter "net.tcp.rto_fired")
  in
  let fired = rto_fired () in
  Tcp.abort conn;
  drains engine;
  check_bool "server saw the reset" true (!reason = Some `Reset);
  check_int "no RTO fires after the reset" fired (rto_fired ())

let handle_ends_on_rto_give_up () =
  (* The "partition" plan cuts the fabric from 200 us on and never
     heals: bytes sent after the cut are retransmitted until TCP gives
     the connection up. *)
  let fault = Dk_fault.Fault.create () in
  Dk_fault.Fault.install fault
    (Option.get (Dk_fault.Fault.named ~seed:7L "partition"));
  let engine, conn, _ = echo_pair ~fault "" in
  let reason = ref None in
  Tcp.set_on_close conn (fun r -> reason := Some r);
  Engine.run_for engine 300_000L;
  check_int "sent into the partition" 4 (Tcp.send conn "lost");
  drains engine;
  check_bool "timed out" true (!reason = Some `Timeout)

(* TCP data integrity under random loss seeds (property). *)
let tcp_loss_prop =
  QCheck.Test.make ~name:"tcp delivers intact under random loss" ~count:5
    QCheck.(pair (int_bound 1000) (int_range 1000 20_000))
    (fun (seed, size) ->
      let engine = Engine.create () in
      let fabric =
        Fabric.create ~engine ~cost ~loss:0.02 ~seed:(Int64.of_int seed) ()
      in
      let mk i addr_s =
        let nic = Nic.create ~engine ~cost ~mac:(Addr.mac_of_index i) () in
        Fabric.attach fabric nic;
        let a = ip addr_s in
        (Stack.create ~engine ~cost ~nic ~ip:a (), a)
      in
      let sa, _ = mk 1 "10.0.0.1" in
      let sb, ab = mk 2 "10.0.0.2" in
      let received = Stdlib.Buffer.create size in
      ignore
        (Stack.tcp_listen sb ~port:9 ~on_accept:(fun c ->
             Tcp.set_on_readable c (fun () ->
                 Stdlib.Buffer.add_string received (Tcp.recv c (Tcp.recv_ready c)))));
      let conn = Stack.tcp_connect sa ~dst:(Addr.endpoint ab 9) in
      let data = String.init size (fun i -> Char.chr ((i * 31 + seed) land 0xff)) in
      let remaining = ref data in
      let try_send () =
        if String.length !remaining > 0 then begin
          let n = Tcp.send conn !remaining in
          remaining := String.sub !remaining n (String.length !remaining - n)
        end
      in
      Tcp.set_on_connect conn try_send;
      Tcp.set_on_writable conn try_send;
      let ok =
        Engine.run_until engine (fun () ->
            Stdlib.Buffer.length received >= size)
      in
      ok && String.equal (Stdlib.Buffer.contents received) data)

(* A tiny NIC rx ring drops frames under bursts; TCP must recover via
   retransmission with the data intact. *)
let tcp_survives_nic_overflow () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let mk i addr_s cap =
    let nic =
      Nic.create ~engine ~cost ~mac:(Addr.mac_of_index i) ~rx_capacity:cap ()
    in
    Fabric.attach fabric nic;
    let a = ip addr_s in
    (Stack.create ~engine ~cost ~nic ~ip:a (), a, nic)
  in
  let sa, _, _ = mk 1 "10.0.0.1" 1024 in
  let sb, ab, nic_b = mk 2 "10.0.0.2" 4 in
  let received = Stdlib.Buffer.create 1024 in
  ignore
    (Stack.tcp_listen sb ~port:9 ~on_accept:(fun c ->
         Tcp.set_on_readable c (fun () ->
             Stdlib.Buffer.add_string received (Tcp.recv c (Tcp.recv_ready c)))));
  let conn = Stack.tcp_connect sa ~dst:(Addr.endpoint ab 9) in
  let size = 60_000 in
  let data = String.init size (fun i -> Char.chr ((i * 5) land 0xff)) in
  let remaining = ref data in
  let try_send () =
    if String.length !remaining > 0 then begin
      let n = Tcp.send conn !remaining in
      remaining := String.sub !remaining n (String.length !remaining - n)
    end
  in
  Tcp.set_on_connect conn try_send;
  Tcp.set_on_writable conn try_send;
  let ok =
    Engine.run_until engine (fun () -> Stdlib.Buffer.length received >= size)
  in
  check_bool "completed" true ok;
  check_bool "intact" true (String.equal data (Stdlib.Buffer.contents received));
  check_bool "ring actually overflowed" true
    ((Nic.stats nic_b).Nic.rx_dropped > 0)

(* Fast retransmit: under loss with many segments in flight, dup-ACK
   recovery must fire (and recover without waiting for RTOs). *)
let tcp_fast_retransmit () =
  let data = String.init 120_000 (fun i -> Char.chr ((i * 11) land 0xff)) in
  let reply, conn, server, _ = tcp_echo_roundtrip ~loss:0.04 data in
  check_bool "intact" true (String.equal data reply);
  let fast =
    (Tcp.stats conn).Tcp.fast_retransmits
    + match server with Some c -> (Tcp.stats c).Tcp.fast_retransmits | None -> 0
  in
  check_bool "fast retransmit fired" true (fast > 0)

(* Flow control: a tiny receive window and a slow reader must not lose
   or duplicate bytes, and the sender must respect backpressure. *)
let tcp_zero_window_recovery () =
  let small =
    { Tcp.default_config with send_buffer = 8192; recv_buffer = 2048 }
  in
  let engine, _, a, b = two_hosts ~tcp_config:small () in
  let received = Stdlib.Buffer.create 1024 in
  let server_conn = ref None in
  ignore
    (Stack.tcp_listen b.stack ~port:9 ~on_accept:(fun c -> server_conn := Some c));
  let conn = Stack.tcp_connect a.stack ~dst:(Addr.endpoint b.addr 9) in
  let size = 50_000 in
  let data = String.init size (fun i -> Char.chr ((i * 3) land 0xff)) in
  let remaining = ref data in
  let try_send () =
    if String.length !remaining > 0 then begin
      let n = Tcp.send conn !remaining in
      remaining := String.sub !remaining n (String.length !remaining - n)
    end
  in
  Tcp.set_on_connect conn try_send;
  Tcp.set_on_writable conn try_send;
  (* the reader drains at most 512 B every 50 us: the window repeatedly
     fills and reopens *)
  let rec slow_reader () =
    ignore
      (Engine.after engine 50_000L (fun () ->
           (match !server_conn with
           | Some c ->
               let got = Tcp.recv c (min 512 (Tcp.recv_ready c)) in
               Stdlib.Buffer.add_string received got
           | None -> ());
           if Stdlib.Buffer.length received < size then slow_reader ()))
  in
  slow_reader ();
  let ok =
    Engine.run_until engine (fun () -> Stdlib.Buffer.length received >= size)
  in
  check_bool "completed" true ok;
  check_bool "intact under backpressure" true
    (String.equal data (Stdlib.Buffer.contents received))

(* Three hosts on one fabric: two clients concurrently echo through one
   server without crosstalk. *)
let three_host_concurrency () =
  let engine = Engine.create () in
  let fabric = Fabric.create ~engine ~cost () in
  let mk i addr_s =
    let nic = Nic.create ~engine ~cost ~mac:(Addr.mac_of_index i) () in
    Fabric.attach fabric nic;
    let a = ip addr_s in
    (Stack.create ~engine ~cost ~nic ~ip:a (), a)
  in
  let c1, _ = mk 1 "10.0.0.1" in
  let c2, _ = mk 2 "10.0.0.2" in
  let srv, srv_ip = mk 3 "10.0.0.3" in
  ignore
    (Stack.tcp_listen srv ~port:7 ~on_accept:(fun conn ->
         Tcp.set_on_readable conn (fun () ->
             ignore (Tcp.send conn (Tcp.recv conn (Tcp.recv_ready conn))))));
  let run_client stack tag =
    let conn = Stack.tcp_connect stack ~dst:(Addr.endpoint srv_ip 7) in
    let reply = Stdlib.Buffer.create 64 in
    Tcp.set_on_connect conn (fun () -> ignore (Tcp.send conn tag));
    Tcp.set_on_readable conn (fun () ->
        Stdlib.Buffer.add_string reply (Tcp.recv conn (Tcp.recv_ready conn)));
    (conn, reply)
  in
  let _, r1 = run_client c1 "client-one-payload" in
  let _, r2 = run_client c2 "client-two-payload" in
  let ok =
    Engine.run_until engine (fun () ->
        Stdlib.Buffer.length r1 >= 18 && Stdlib.Buffer.length r2 >= 18)
  in
  check_bool "both finished" true ok;
  check_str "client 1 echo" "client-one-payload" (Stdlib.Buffer.contents r1);
  check_str "client 2 echo" "client-two-payload" (Stdlib.Buffer.contents r2)

(* TCP data integrity under heavy frame reordering: the fabric's
   [Fabric_reorder] site holds half the frames back 30-60 us, past
   their successors, so the receiver must reassemble out of order — and
   each case checks that it had to. *)
let tcp_reorder_prop =
  QCheck.Test.make ~name:"tcp delivers intact under frame reordering" ~count:5
    (QCheck.make ~print:QCheck.Print.(pair int int)
       QCheck.Gen.(pair (int_bound 1000) (int_range 5_000 40_000)))
    (fun (seed, size) ->
      let engine = Engine.create () in
      let fault = Fault.create () in
      Fault.install fault
        (Fault.plan ~seed:(Int64.of_int (seed + 1))
           [
             ( Fault.Fabric_reorder,
               Fault.spec ~rate:0.5 ~magnitude_ns:30_000L () );
           ]);
      let fabric = Fabric.create ~engine ~cost ~fault () in
      let mk i addr_s =
        let nic = Nic.create ~engine ~cost ~mac:(Addr.mac_of_index i) () in
        Fabric.attach fabric nic;
        let a = ip addr_s in
        (Stack.create ~engine ~cost ~nic ~ip:a (), a)
      in
      let sa, _ = mk 1 "10.0.0.1" in
      let sb, ab = mk 2 "10.0.0.2" in
      let received = Stdlib.Buffer.create size in
      let accepted = ref None in
      ignore
        (Stack.tcp_listen sb ~port:9 ~on_accept:(fun c ->
             accepted := Some c;
             Tcp.set_on_readable c (fun () ->
                 Stdlib.Buffer.add_string received (Tcp.recv c (Tcp.recv_ready c)))));
      let conn = Stack.tcp_connect sa ~dst:(Addr.endpoint ab 9) in
      let data = String.init size (fun i -> Char.chr ((i * 13 + seed) land 0xff)) in
      let remaining = ref data in
      let try_send () =
        if String.length !remaining > 0 then begin
          let n = Tcp.send conn !remaining in
          remaining := String.sub !remaining n (String.length !remaining - n)
        end
      in
      Tcp.set_on_connect conn try_send;
      Tcp.set_on_writable conn try_send;
      let ok =
        Engine.run_until engine (fun () -> Stdlib.Buffer.length received >= size)
      in
      let out_of_order =
        match !accepted with
        | Some c -> (Tcp.stats c).Tcp.out_of_order
        | None -> 0
      in
      ok
      && String.equal (Stdlib.Buffer.contents received) data
      && Fault.injected fault Fault.Fabric_reorder > 0
      && out_of_order > 0)

(* ---------------- Framing ---------------- *)

let framing_simple () =
  let enc = Framing.encode [ "hello"; "world" ] in
  let d = Framing.create () in
  Framing.feed d enc;
  (match Framing.next d with
  | Some segs ->
      check (Alcotest.list Alcotest.string) "segments" [ "hello"; "world" ] segs
  | None -> Alcotest.fail "expected message");
  check_bool "drained" true (Framing.next d = None);
  check_int "no leftovers" 0 (Framing.buffered d)

let framing_fragmented_delivery () =
  let enc = Framing.encode [ "atomic unit" ] in
  let d = Framing.create () in
  (* feed one byte at a time: no partial message must ever appear *)
  String.iter
    (fun c ->
      check_bool "no early delivery" true
        (Framing.buffered d = 0 || Framing.next d = None || true);
      Framing.feed d (String.make 1 c))
    (String.sub enc 0 (String.length enc - 1));
  check_bool "still incomplete" true (Framing.next d = None);
  Framing.feed d (String.make 1 enc.[String.length enc - 1]);
  match Framing.next d with
  | Some [ s ] -> check_str "complete" "atomic unit" s
  | _ -> Alcotest.fail "expected one segment"

let framing_back_to_back () =
  let enc = Framing.encode [ "a" ] ^ Framing.encode [ "bb"; "cc" ] in
  let d = Framing.create () in
  Framing.feed d enc;
  (match Framing.next d with
  | Some [ "a" ] -> ()
  | _ -> Alcotest.fail "first message");
  match Framing.next d with
  | Some [ "bb"; "cc" ] -> ()
  | _ -> Alcotest.fail "second message"

let framing_empty_segments () =
  let enc = Framing.encode [ ""; "x"; "" ] in
  let d = Framing.create () in
  Framing.feed d enc;
  match Framing.next d with
  | Some segs ->
      check (Alcotest.list Alcotest.string) "empties preserved" [ ""; "x"; "" ] segs
  | None -> Alcotest.fail "expected message"

let framing_ignores_stale_bytes () =
  (* Draining the backlog rewinds the buffer without clearing it: a
     partial count fed next must not run on into the old bytes. *)
  let d = Framing.create () in
  Framing.feed d (Framing.encode [ "\xff\xff\xff\x7f" ]);
  check_bool "first message" true (Framing.next d <> None);
  Framing.feed d "\x80\x80";
  check_bool "count still incomplete" true (Framing.next d = None);
  check_int "partial count kept" 2 (Framing.buffered d)

(* A frame header: the segment count, then one varint per length. *)
let header lens =
  let b = Stdlib.Buffer.create 16 in
  Dk_util.Varint.write b (List.length lens);
  List.iter (Dk_util.Varint.write b) lens;
  Stdlib.Buffer.contents b

(* Lengths may sum to [max_message]; one byte more, across segments,
   is corrupt as soon as the header is read. *)
let framing_message_bound () =
  let d = Framing.create () in
  Framing.feed d (header [ Framing.max_message ]);
  check_bool "at the bound: waits for the body" true
    (Framing.next d = None && not (Framing.corrupt d));
  let d = Framing.create () in
  Framing.feed d (header [ Framing.max_message; 1 ]);
  check_bool "one byte past it: corrupt" true
    (Framing.next d = None && Framing.corrupt d);
  (* the sender checks the same bounds before it frames *)
  let store = Bytes.create (Framing.max_message + 1) in
  let sga lens =
    Dk_mem.Sga.of_buffers
      (List.map (fun len -> Dk_mem.Buffer.view store ~off:0 ~len) lens)
  in
  check_bool "max_message bytes fit" true
    (Framing.fits (sga [ Framing.max_message ]));
  check_bool "one byte more does not" false
    (Framing.fits (sga [ Framing.max_message; 1 ]));
  check_bool "2^16 segments fit" true
    (Framing.fits (sga (List.init (1 lsl 16) (fun _ -> 1))));
  check_bool "one segment more does not" false
    (Framing.fits (sga (List.init ((1 lsl 16) + 1) (fun _ -> 1))))

(* The store cut gives each segment a view bounded by its own length:
   no write through one segment reaches its neighbour. *)
let framing_store_views_bounded () =
  let d = Framing.create () in
  Framing.feed d (Framing.encode [ "left"; "right" ]);
  match Option.map Dk_mem.Sga.segments (Framing.next_sga d) with
  | Some [ l; r ] ->
      let module B = Dk_mem.Buffer in
      B.fill l 'x';
      Alcotest.check_raises "set past the end" (Invalid_argument "Buffer.set")
        (fun () -> B.set l 4 'y');
      Alcotest.check_raises "blit past the end"
        (Invalid_argument "Buffer.blit_from_string") (fun () ->
          B.blit_from_string "yy" 0 l 3 2);
      Alcotest.check_raises "read before the start"
        (Invalid_argument "Buffer.get") (fun () -> ignore (B.get r (-1)));
      check_str "written segment" "xxxx" (B.to_string l);
      check_str "neighbour untouched" "right" (B.to_string r);
      Alcotest.check_raises "view past its store"
        (Invalid_argument "Buffer.view") (fun () ->
          ignore (B.view (Bytes.create 4) ~off:2 ~len:3))
  | _ -> Alcotest.fail "expected two segments"

(* Segments up to ~5 KB, chunks up to ~3 KB and a drain only after
   every [k]-th feed, so the decoder's backlog grows, wraps to the front
   and outgrows its buffer. *)
let framing_roundtrip_prop =
  QCheck.Test.make ~name:"framing roundtrip under random fragmentation"
    ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 30)
           (list_of_size Gen.(0 -- 6)
              (string_of_size Gen.(oneof [ 0 -- 20; 0 -- 5000 ]))))
        (int_bound 1000) (int_range 1 8))
    (fun (messages, seed, k) ->
      let stream = String.concat "" (List.map Framing.encode messages) in
      (* random fragmentation *)
      let rng = Dk_sim.Rng.create (Int64.of_int seed) in
      let d = Framing.create () in
      let out = ref [] in
      let rec drain () =
        match Framing.next d with
        | Some m ->
            out := m :: !out;
            drain ()
        | None -> ()
      in
      let pos = ref 0 and feeds = ref 0 in
      while !pos < String.length stream do
        let chunk =
          if Dk_sim.Rng.bool rng 0.5 then 1 + Dk_sim.Rng.int rng 7
          else 1 + Dk_sim.Rng.int rng 3000
        in
        let n = min chunk (String.length stream - !pos) in
        Framing.feed d (String.sub stream !pos n);
        pos := !pos + n;
        incr feeds;
        if !feeds mod k = 0 then drain ()
      done;
      drain ();
      List.rev !out = messages && Framing.buffered d = 0)

(* Arbitrary bytes in arbitrary chunks: the decoder never raises, and
   once it calls the stream corrupt it stays corrupt and yields
   nothing. Some inputs instead follow one framed message with a header
   prefix and a run of 0x80 bytes: an unterminated varint where a
   segment count or length starts. Eight such bytes may still be a
   short read; nine or more are corrupt, as no non-negative int needs
   more. Others follow it with a header that claims a 1 GiB segment and
   then filler: the stream is corrupt once the header is in, and the
   filler fed after it is never buffered. *)
let framing_total_prop =
  QCheck.Test.make ~name:"framing decoder total and sticky" ~count:500
    QCheck.(
      triple (string_of_size Gen.(0 -- 80)) (int_bound 1000)
        (option (pair (int_bound 3) (int_bound 16))))
    (fun (bytes, seed, run) ->
      let head, tail =
        match run with
        | None -> (bytes, "")
        | Some (3, n) ->
            ( Framing.encode [ bytes ] ^ header [ 1 lsl 30 ],
              String.make (n * 512) 'f' )
        | Some (field, n) ->
            ( Framing.encode [ bytes ]
              ^ [| ""; "\x01"; "\x02\x03" |].(field)
              ^ String.make n '\x80',
              "" )
      in
      let stream = head ^ tail and lying = String.length head in
      let rng = Dk_sim.Rng.create (Int64.of_int seed) in
      let d = Framing.create () in
      let sticky = ref true and bounded = ref true and pos = ref 0 in
      let rec drain () =
        let was = Framing.corrupt d in
        match Framing.next d with
        | Some _ ->
            sticky := !sticky && not was;
            drain ()
        | None -> sticky := !sticky && Framing.corrupt d >= was
      in
      (* No chunk straddles the end of [head], so each step after it
         feeds filler only. *)
      let held = ref 0 in
      while !pos < String.length stream do
        let limit = if !pos < lying then lying else String.length stream in
        let n = min (1 + Dk_sim.Rng.int rng 9) (limit - !pos) in
        Framing.feed d (String.sub stream !pos n);
        pos := !pos + n;
        drain ();
        if !pos = lying then held := Framing.buffered d;
        if !pos > lying then bounded := !bounded && Framing.buffered d <= !held
      done;
      !sticky
      &&
      match run with
      | None -> true
      | Some (3, _) -> Framing.corrupt d && !bounded
      | Some (_, n) -> Framing.corrupt d = (n >= 9))

(* The receive path's in-place fill and store cut against [feed] and
   [next], the string path, on one stream in the same splits: equal
   messages, corrupt verdicts and backlogs at every step. Messages have
   0-4 segments, empty ones included, up to 40 KiB in all; splits of
   1-7 bytes land inside varints. Some streams have one byte
   overwritten, or end in a header that declares too much, so both
   paths meet corrupt input. The fill reserves more than it writes, and
   sometimes its reader fails and writes nothing. The popped sgas are
   compared only at the end, after every later fill, slide and growth
   of the backlog. Shrinking inputs this large takes minutes, so a
   failure prints the segment sizes and the rest of the input as found;
   the printed qcheck seed reproduces it. *)
let framing_fill_prop =
  let sizes m =
    String.concat "," (List.map (fun s -> string_of_int (String.length s)) m)
  in
  let show (messages, seed, flip, lying) =
    Printf.sprintf "segment sizes %s, seed %d, flip %s, lying %b"
      (String.concat " | " (List.map sizes messages))
      seed
      (match flip with Some (i, c) -> Printf.sprintf "%d:%C" i c | None -> "-")
      lying
  in
  QCheck.Test.make ~name:"framing fill and store cut match feed and next"
    ~count:200
    QCheck.(
      set_shrink Shrink.nil
        (set_print show
           (quad
              (list_of_size Gen.(0 -- 8)
                 (list_of_size Gen.(0 -- 4)
                    (string_of_size Gen.(oneof [ 0 -- 20; 0 -- 10_240 ]))))
              (int_bound 1000)
              (option (pair small_nat char))
              bool)))
    (fun (messages, seed, flip, lying) ->
      let stream =
        Bytes.of_string
          (String.concat "" (List.map Framing.encode messages)
          ^ if lying then header [ Framing.max_message + 1 ] else "")
      in
      let len = Bytes.length stream in
      (match flip with
      | Some (i, c) when len > 0 -> Bytes.set stream (i mod len) c
      | Some _ | None -> ());
      let stream = Bytes.unsafe_to_string stream in
      let rng = Dk_sim.Rng.create (Int64.of_int seed) in
      let a = Framing.create () and b = Framing.create () in
      let strings = ref [] and sgas = ref [] in
      let rec drain () =
        match (Framing.next a, Framing.next_sga b) with
        | Some m, Some sga ->
            strings := m :: !strings;
            sgas := sga :: !sgas;
            drain ()
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      let copy (pos, n) buf off k =
        assert (n <= k);
        Bytes.blit_string stream pos buf off n;
        Ok n
      in
      let agree = ref true and pos = ref 0 in
      while !agree && !pos < len do
        if Dk_sim.Rng.bool rng 0.1 then
          agree :=
            Framing.fill b 64 (fun () _ _ _ -> Error ()) () = Error ()
            && Framing.buffered b = Framing.buffered a;
        let chunk =
          match Dk_sim.Rng.int rng 3 with
          | 0 -> 1 + Dk_sim.Rng.int rng 7
          | 1 -> 1 + Dk_sim.Rng.int rng 3000
          | _ -> 1 + Dk_sim.Rng.int rng 20_000
        in
        let n = min chunk (len - !pos) in
        Framing.feed a (String.sub stream !pos n);
        let spare = Dk_sim.Rng.int rng 100 in
        agree := !agree && Framing.fill b (n + spare) copy (!pos, n) = Ok n;
        pos := !pos + n;
        agree :=
          !agree && drain ()
          && Framing.corrupt a = Framing.corrupt b
          && Framing.buffered a = Framing.buffered b
      done;
      let cut sga = List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga) in
      !agree
      && List.map cut !sgas = !strings
      && (Framing.corrupt a || flip <> None || lying
         || List.rev !strings = messages))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dk_net"
    [
      ( "addr",
        [
          Alcotest.test_case "ip roundtrip" `Quick addr_ip_roundtrip;
          Alcotest.test_case "endpoint" `Quick addr_endpoint;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "eth roundtrip" `Quick eth_roundtrip;
          Alcotest.test_case "eth short" `Quick eth_short;
          Alcotest.test_case "arp roundtrip" `Quick arp_roundtrip;
          Alcotest.test_case "ipv4 roundtrip" `Quick ipv4_roundtrip;
          Alcotest.test_case "ipv4 corruption" `Quick ipv4_detects_corruption;
          Alcotest.test_case "udp roundtrip" `Quick udp_roundtrip;
          Alcotest.test_case "udp pseudo header" `Quick udp_checksum_binds_addresses;
          Alcotest.test_case "tcp_wire roundtrip" `Quick tcp_wire_roundtrip;
          Alcotest.test_case "tcp_wire check errors" `Quick tcp_check_errors;
        ] );
      qsuite "codec-props" [ codec_roundtrip_prop; udp_datagram_end_prop ];
      ( "udp",
        [
          Alcotest.test_case "end to end" `Quick udp_end_to_end;
          Alcotest.test_case "bind conflict" `Quick udp_bind_conflict;
          Alcotest.test_case "no listener" `Quick udp_no_listener_counted;
          Alcotest.test_case "arp once" `Quick arp_resolution_once;
          Alcotest.test_case "max datagram" `Quick udp_max_datagram;
        ] );
      (* Fixed seed: a flipped bit in the UDP length field also moves
         the end of the checksummed region, and about one such flip in
         2^16 shortens a datagram to a prefix whose checksum holds.
         Other flips are always caught; pinning the inputs keeps the
         "never reaches a socket" assertion reproducible. *)
      ( "rx-fuzz",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1009 |])
            rx_fuzz_prop;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect and echo" `Quick tcp_connect_and_echo;
          Alcotest.test_case "large transfer" `Quick tcp_large_transfer;
          Alcotest.test_case "loss recovery" `Quick tcp_loss_recovery;
          Alcotest.test_case "loss observed" `Quick tcp_loss_observed;
          Alcotest.test_case "rtt microseconds" `Quick tcp_rtt_is_microseconds;
          Alcotest.test_case "connect refused" `Quick tcp_connect_refused;
          Alcotest.test_case "graceful close" `Quick tcp_graceful_close;
          Alcotest.test_case "send before established" `Quick
            tcp_send_before_established_rejected;
          Alcotest.test_case "abort sends rst" `Quick tcp_abort_sends_rst;
          Alcotest.test_case "many connections" `Quick tcp_many_connections;
          Alcotest.test_case "zero window recovery" `Quick tcp_zero_window_recovery;
          Alcotest.test_case "fast retransmit" `Quick tcp_fast_retransmit;
          Alcotest.test_case "nic overflow recovery" `Quick tcp_survives_nic_overflow;
          Alcotest.test_case "three-host concurrency" `Quick three_host_concurrency;
        ] );
      ( "tcp-timers",
        [
          Alcotest.test_case "close through TIME_WAIT" `Quick
            handle_ends_through_time_wait;
          Alcotest.test_case "reset" `Quick handle_ends_on_rst;
          Alcotest.test_case "rto give-up under a partition" `Quick
            handle_ends_on_rto_give_up;
        ] );
      ( "tcp-props",
        [
          QCheck_alcotest.to_alcotest tcp_loss_prop;
          (* Fixed cases: in about 1 transfer in 40 no held-back frame
             is a data segment a successor overtakes, which would fail
             the reordering check rather than TCP. *)
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 1009 |])
            tcp_reorder_prop;
        ] );
      ( "framing",
        [
          Alcotest.test_case "simple" `Quick framing_simple;
          Alcotest.test_case "fragmented" `Quick framing_fragmented_delivery;
          Alcotest.test_case "back to back" `Quick framing_back_to_back;
          Alcotest.test_case "empty segments" `Quick framing_empty_segments;
          Alcotest.test_case "stale bytes" `Quick framing_ignores_stale_bytes;
          Alcotest.test_case "message bound" `Quick framing_message_bound;
          Alcotest.test_case "store views bounded" `Quick
            framing_store_views_bounded;
        ] );
      qsuite "framing-props"
        [ framing_roundtrip_prop; framing_total_prop; framing_fill_prop ];
    ]
