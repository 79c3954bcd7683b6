type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

type config = {
  mss : int;
  send_buffer : int;
  recv_buffer : int;
  rto_initial : int64;
  rto_max : int64;
  max_retries : int;
  time_wait : int64;
}

let default_config =
  {
    mss = 1460;
    send_buffer = 64 * 1024;
    recv_buffer = 64 * 1024;
    rto_initial = 100_000L; (* 100 us: datacenter-scale RTTs *)
    rto_max = 4_000_000L;
    max_retries = 8;
    time_wait = 1_000_000L;
  }

type close_reason = [ `Normal | `Reset | `Timeout ]

type stats = {
  segs_sent : int;
  segs_received : int;
  bytes_sent : int;
  bytes_received : int;
  retransmits : int;
  fast_retransmits : int;
  dup_acks : int;
  out_of_order : int;
}

module Flight = Dk_obs.Flight
module Metrics = Dk_obs.Metrics
module Tcp_wire = Dk_wire.Tcp_wire

(* Class-wide obs instruments (aggregated across connections); each
   connection counts its [stats] into its own instances of them, and
   the flight recorder entries name the 4-tuple to tell flows apart. *)
let m_segs_sent = Metrics.counter "net.tcp.segs_sent"
let m_segs_received = Metrics.counter "net.tcp.segs_received"
let m_retransmits = Metrics.counter "net.tcp.retransmits"
let m_fast_retransmits = Metrics.counter "net.tcp.fast_retransmits"
let m_rto_fired = Metrics.counter "net.tcp.rto_fired"
let m_conn_timeouts = Metrics.counter "net.tcp.conn_timeouts"
let m_dup_acks = Metrics.counter "net.tcp.dup_acks"
let m_ooo = Metrics.counter "net.tcp.out_of_order"

(* 32-bit modular sequence arithmetic. *)
let seq_mask = 0xffffffff
let seq_add a n = (a + n) land seq_mask
let seq_diff a b = (a - b) land seq_mask
(* a < b in sequence space *)
let seq_lt a b = a <> b && seq_diff b a < 0x80000000
let seq_le a b = a = b || seq_lt a b

type emit =
  seq:int -> ack_seq:int -> flags:int -> window:int -> bytes -> int -> unit

type conn = {
  engine : Dk_sim.Engine.t;
  config : config;
  local : Addr.endpoint;
  remote : Addr.endpoint;
  payload_off : int; (* where a frame's payload starts; the stack decides *)
  emit : emit;
  mutable st : state;
  (* send side *)
  send_ring : Dk_util.Ring.t; (* unacked + unsent bytes; head = snd_una *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int; (* peer's advertised window *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable fin_pending : bool; (* close requested; FIN after data drains *)
  mutable fin_sent : bool;
  mutable fin_seq : int;
  (* receive side *)
  recv_ring : Dk_util.Ring.t; (* in-order data ready for the app *)
  mutable rcv_nxt : int;
  mutable ooo : (int * string) list; (* out-of-order segments, by seq *)
  mutable peer_fin : int option; (* seq of peer's FIN, once seen *)
  (* timers *)
  mutable rto : int64;
  mutable retries : int;
  mutable rtx : Dk_sim.Engine.timer; (* the RTO; set once in [make] *)
  (* callbacks *)
  mutable on_connect : unit -> unit;
  mutable on_readable : unit -> unit;
  mutable on_peer_fin : unit -> unit;
  mutable on_writable : unit -> unit;
  mutable on_close : close_reason -> unit;
  mutable internal_teardown : close_reason -> unit;
  (* stats *)
  segs_sent : Metrics.counter;
  segs_received : Metrics.counter;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  retransmits : Metrics.counter;
  fast_retransmits : Metrics.counter;
  dup_acks : Metrics.counter;
  mutable dup_ack_streak : int; (* consecutive dup acks since last advance *)
  out_of_order : Metrics.counter;
}

let state t = t.st
let local t = t.local
let remote t = t.remote

let stats t =
  {
    segs_sent = Metrics.value t.segs_sent;
    segs_received = Metrics.value t.segs_received;
    bytes_sent = t.bytes_sent;
    bytes_received = t.bytes_received;
    retransmits = Metrics.value t.retransmits;
    fast_retransmits = Metrics.value t.fast_retransmits;
    dup_acks = Metrics.value t.dup_acks;
    out_of_order = Metrics.value t.out_of_order;
  }

let set_on_connect t f = t.on_connect <- f
let set_on_readable t f = t.on_readable <- f
let set_on_peer_fin t f = t.on_peer_fin <- f
let set_on_writable t f = t.on_writable <- f
let set_on_close t f = t.on_close <- f
let set_internal_teardown t f = t.internal_teardown <- f

let recv_window t = Dk_util.Ring.available t.recv_ring

(* Emit a segment at [seq] whose [len] payload bytes sit at
   [payload_off] in [frame], a buffer sized for the whole frame so the
   stack can write every header in front of them. A segment without
   payload passes [Bytes.empty] and 0; the stack gives it a
   header-only frame. *)
let emit_at t ~seq frame len flags =
  Metrics.incr t.segs_sent;
  t.emit ~seq ~ack_seq:t.rcv_nxt ~flags
    ~window:(Int.min 0xffff (recv_window t))
    frame len

(* A control segment at snd_nxt. *)
let emit_seg t flags = emit_at t ~seq:t.snd_nxt Bytes.empty 0 flags

(* A frame carrying the [n] send-ring bytes that start [skip] bytes
   past snd_una: the one copy a data segment's bytes make on the host
   before the NIC takes the frame. *)
let data_frame t ~skip n =
  if n = 0 then Bytes.empty
  else begin
    let frame = Bytes.create (t.payload_off + n) in
    ignore (Dk_util.Ring.peek_at t.send_ring ~skip frame t.payload_off n);
    frame
  end
  [@@hot.alloc "each data segment's frame is allocated once, sized whole"]

let has flags bit = flags land bit <> 0
let send_ack t = emit_seg t Tcp_wire.ack

let enter_closed t reason =
  Dk_sim.Engine.cancel t.rtx;
  if t.st <> Closed then begin
    t.st <- Closed;
    t.internal_teardown reason;
    t.on_close reason
  end

(* Bytes in the send ring that have been transmitted but not acked. *)
let unacked t = seq_diff t.snd_nxt t.snd_una

(* Bytes in the send ring not yet transmitted. The FIN, if queued,
   occupies sequence space but not ring space. *)
let unsent t =
  let ring_unsent = Dk_util.Ring.length t.send_ring - unacked t in
  Int.max 0 ring_unsent

(* Open a flight entry whose label starts "tcp <local>-><remote>"; the
   caller appends the rest and commits. *)
let flight_start t kind =
  Flight.start Flight.default ~now:(Dk_sim.Engine.now t.engine) kind
  && begin
       Flight.add_string Flight.default "tcp ";
       Flight.add_int Flight.default t.local.Addr.port;
       Flight.add_string Flight.default "->";
       Flight.add_int Flight.default t.remote.Addr.port;
       true
     end

let rec arm_rtx t =
  if unacked t > 0 || (t.fin_sent && seq_lt t.snd_una t.snd_nxt) then
    Dk_sim.Engine.rearm t.rtx t.rto
  else Dk_sim.Engine.cancel t.rtx

and on_rto t =
  Metrics.incr m_rto_fired;
  if t.retries >= t.config.max_retries then begin
    Metrics.incr m_conn_timeouts;
    if flight_start t Flight.Drop then begin
      Flight.add_string Flight.default " gave up after ";
      Flight.add_int Flight.default t.retries;
      Flight.add_string Flight.default " retries";
      Flight.commit Flight.default
    end;
    enter_closed t `Timeout
  end
  else begin
    t.retries <- t.retries + 1;
    Metrics.incr t.retransmits;
    if flight_start t Flight.Retransmit then begin
      Flight.add_string Flight.default " rto #";
      Flight.add_int Flight.default t.retries;
      Flight.add_string Flight.default ", seq ";
      Flight.add_int Flight.default t.snd_una;
      Flight.add_string Flight.default " (rto now ";
      Flight.add_int64 Flight.default
        (Int64.min t.config.rto_max (Int64.mul t.rto 2L));
      Flight.add_string Flight.default "ns)";
      Flight.commit Flight.default
    end;
    (* Multiplicative decrease, back to slow start. *)
    t.ssthresh <- Int.max (t.cwnd / 2) (2 * t.config.mss);
    t.cwnd <- t.config.mss;
    t.rto <- Int64.min t.config.rto_max (Int64.mul t.rto 2L);
    retransmit_head t;
    arm_rtx t
  end

(* Resend one MSS from snd_una (go-back-N restart). *)
and retransmit_head t =
  match t.st with
  | Syn_sent -> emit_at t ~seq:t.snd_una Bytes.empty 0 Tcp_wire.syn
  | Syn_rcvd ->
      emit_at t ~seq:t.snd_una Bytes.empty 0 (Tcp_wire.syn lor Tcp_wire.ack)
  | _ ->
      let data_bytes = Int.min (unacked t) t.config.mss in
      if data_bytes > 0 then begin
        (* A sent FIN counts in [unacked] but holds no ring byte. *)
        let n = Int.min data_bytes (Dk_util.Ring.length t.send_ring) in
        emit_at t ~seq:t.snd_una (data_frame t ~skip:0 n) n Tcp_wire.ack
      end
      else if t.fin_sent then
        emit_at t ~seq:t.fin_seq Bytes.empty 0 (Tcp_wire.ack lor Tcp_wire.fin)

(* How many new payload bytes we may put on the wire right now. *)
let send_allowance t =
  let flight = unacked t in
  let wnd = Int.min (Int.max t.snd_wnd t.config.mss) t.cwnd in
  Int.max 0 (wnd - flight)

let can_carry_data t =
  match t.st with
  | Established | Close_wait | Fin_wait_1 | Closing -> true
  | Closed | Listen | Syn_sent | Syn_rcvd | Fin_wait_2 | Last_ack | Time_wait ->
      false

(* One MSS-or-less segment per round, budget threaded through the
   parameter: the old budget/progress ref pair allocated two cells on
   every output attempt. *)
let rec output_rounds t budget =
  let avail = unsent t in
  let n = Int.min (Int.min avail t.config.mss) budget in
  if n > 0 then begin
    (* The bytes to send start [unacked t] into the ring; [n <= unsent t]
       so all of them are there. *)
    let frame = data_frame t ~skip:(unacked t) n in
    t.bytes_sent <- t.bytes_sent + n;
    emit_at t ~seq:t.snd_nxt frame n Tcp_wire.ack;
    t.snd_nxt <- seq_add t.snd_nxt n;
    output_rounds t (budget - n)
  end

(* Transmit as much queued data as windows allow, then the FIN if it is
   due. *)
let rec try_output t =
  if can_carry_data t || t.st = Fin_wait_1 || t.st = Last_ack then begin
    output_rounds t (send_allowance t);
    maybe_send_fin t;
    if not (Dk_sim.Engine.scheduled t.rtx) then arm_rtx t
  end

and maybe_send_fin t =
  if t.fin_pending && (not t.fin_sent) && unsent t = 0 then begin
    t.fin_sent <- true;
    t.fin_seq <- t.snd_nxt;
    emit_seg t (Tcp_wire.ack lor Tcp_wire.fin);
    t.snd_nxt <- seq_add t.snd_nxt 1;
    arm_rtx t
  end

let make ~engine ~config ~local ~remote ~iss ~payload_off ~emit st =
  let t =
    {
      engine;
      config;
      local;
      remote;
      payload_off;
      emit;
      st;
      send_ring = Dk_util.Ring.create config.send_buffer;
      snd_una = iss;
      snd_nxt = iss;
      snd_wnd = config.mss;
      cwnd = 2 * config.mss;
      ssthresh = 64 * 1024;
      fin_pending = false;
      fin_sent = false;
      fin_seq = 0;
      recv_ring = Dk_util.Ring.create config.recv_buffer;
      rcv_nxt = 0;
      ooo = [];
      peer_fin = None;
      rto = config.rto_initial;
      retries = 0;
      rtx = Dk_sim.Engine.timer engine ignore;
      on_connect = (fun () -> ());
      on_readable = (fun () -> ());
      on_peer_fin = (fun () -> ());
      on_writable = (fun () -> ());
      on_close = (fun _ -> ());
      internal_teardown = (fun _ -> ());
      segs_sent = Metrics.instance m_segs_sent;
      segs_received = Metrics.instance m_segs_received;
      bytes_sent = 0;
      bytes_received = 0;
      retransmits = Metrics.instance m_retransmits;
      fast_retransmits = Metrics.instance m_fast_retransmits;
      dup_acks = Metrics.instance m_dup_acks;
      dup_ack_streak = 0;
      out_of_order = Metrics.instance m_ooo;
    }
  in
  (* The RTO's thunk needs [t], so its handle replaces a placeholder. *)
  t.rtx <- Dk_sim.Engine.timer engine (fun () -> on_rto t);
  t

let create_active ~engine ~config ~local ~remote ~iss ~payload_off ~emit =
  let t =
    make ~engine ~config ~local ~remote ~iss ~payload_off ~emit Syn_sent
  in
  emit_seg t Tcp_wire.syn;
  t.snd_nxt <- seq_add t.snd_nxt 1;
  arm_rtx t;
  t

let create_passive ~engine ~config ~local ~remote ~iss ~payload_off ~emit
    ~remote_seq =
  let t =
    make ~engine ~config ~local ~remote ~iss ~payload_off ~emit Syn_rcvd
  in
  t.rcv_nxt <- seq_add remote_seq 1;
  emit_seg t (Tcp_wire.syn lor Tcp_wire.ack);
  t.snd_nxt <- seq_add t.snd_nxt 1;
  arm_rtx t;
  t

(* ---- application side ---- *)

let send_space t = Dk_util.Ring.available t.send_ring

let send t ?(off = 0) data =
  match t.st with
  | Established | Close_wait when not t.fin_pending ->
      let n =
        Dk_util.Ring.write t.send_ring (Bytes.unsafe_of_string data) off
          (String.length data - off)
      in
      if n > 0 then try_output t;
      n
  | _ -> 0

let recv_ready t = Dk_util.Ring.length t.recv_ring

let recv_into t buf off len =
  let n = Dk_util.Ring.read t.recv_ring buf off len in
  (* Opening the receive window may deserve a window update; piggyback
     on the next ACK instead of emitting pure window updates. *)
  n

let recv t len =
  let buf = Bytes.create (Int.min len (recv_ready t)) in
  ignore (recv_into t buf 0 (Bytes.length buf));
  Bytes.unsafe_to_string buf
  [@@hot.alloc "recv materializes the requested bytes out of the recv ring"]

let close t =
  match t.st with
  | Established | Syn_rcvd ->
      t.fin_pending <- true;
      t.st <- Fin_wait_1;
      maybe_send_fin t
  | Close_wait ->
      t.fin_pending <- true;
      t.st <- Last_ack;
      maybe_send_fin t
  | Syn_sent | Listen -> enter_closed t `Normal
  | Closed | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait -> ()

let abort t =
  (match t.st with
  | Closed | Listen -> ()
  | _ -> emit_seg t (Tcp_wire.rst lor Tcp_wire.ack));
  enter_closed t `Reset

(* ---- segment processing ---- *)

let enter_time_wait t =
  Dk_sim.Engine.cancel t.rtx;
  t.st <- Time_wait;
  ignore
    (Dk_sim.Engine.after t.engine t.config.time_wait (fun () ->
         enter_closed t `Normal))

(* Merge the stashed out-of-order segments whose turn has come into
   the recv ring, again while that makes progress. With nothing
   stashed, the common case, it does nothing. *)
let rec drain_ooo t =
  match t.ooo with
  | [] -> ()
  | ooo -> (
      let ready, rest =
        List.partition (fun (seq, _) -> seq_le seq t.rcv_nxt) ooo
      in
      t.ooo <- rest;
      match ready with
      | [] -> ()
      | _ ->
          let advanced = ref false in
          List.iter
            (fun (seq, payload) ->
              (* The segment may partially duplicate delivered data. *)
              let skip = seq_diff t.rcv_nxt seq in
              if skip < String.length payload then begin
                let fresh =
                  String.sub payload skip (String.length payload - skip)
                in
                let n = Dk_util.Ring.write_string t.recv_ring fresh in
                t.rcv_nxt <- seq_add t.rcv_nxt n;
                if n > 0 then advanced := true
              end)
            (List.sort
               (fun (a, _) (b, _) ->
                 Int.compare (seq_diff a t.rcv_nxt) (seq_diff b t.rcv_nxt))
               ready);
          if !advanced then drain_ooo t)

(* In-order and overlapping data go from the frame straight into the
   receive ring; only out-of-order data is copied out to wait. *)
let accept_payload t ~seq frame ~off ~len =
  if len = 0 then false
  else begin
    t.bytes_received <- t.bytes_received + len;
    if seq = t.rcv_nxt then begin
      let n = Dk_util.Ring.write t.recv_ring frame off len in
      t.rcv_nxt <- seq_add t.rcv_nxt n;
      drain_ooo t;
      n > 0
    end
    else if seq_lt t.rcv_nxt seq then begin
      (* Future data: stash for reassembly (bounded by window). *)
      if seq_diff seq t.rcv_nxt <= t.config.recv_buffer then begin
        Metrics.incr t.out_of_order;
        t.ooo <- (seq, Bytes.sub_string frame off len) :: t.ooo
      end;
      false
    end
    else begin
      (* Stale/overlapping: deliver any fresh suffix. *)
      let skip = seq_diff t.rcv_nxt seq in
      if skip < len then begin
        let n =
          Dk_util.Ring.write t.recv_ring frame (off + skip) (len - skip)
        in
        t.rcv_nxt <- seq_add t.rcv_nxt n;
        drain_ooo t;
        n > 0
      end
      else false
    end
  end

let process_ack t ~ack_seq:ack ~flags ~len =
  if has flags Tcp_wire.ack then begin
    if seq_lt t.snd_una ack && seq_le ack t.snd_nxt then begin
      let acked = seq_diff ack t.snd_una in
      (* The FIN occupies sequence space but no ring bytes. *)
      let fin_acked = t.fin_sent && ack = seq_add t.fin_seq 1 in
      let data_acked = acked - (if fin_acked then 1 else 0) in
      let syn_acked =
        (t.st = Syn_sent || t.st = Syn_rcvd) && acked > 0
      in
      let data_acked = data_acked - (if syn_acked then 1 else 0) in
      if data_acked > 0 then ignore (Dk_util.Ring.drop t.send_ring data_acked);
      t.snd_una <- ack;
      t.dup_ack_streak <- 0;
      t.retries <- 0;
      t.rto <- t.config.rto_initial;
      (* Congestion window growth. *)
      if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + t.config.mss
      else t.cwnd <- t.cwnd + Int.max 1 (t.config.mss * t.config.mss / t.cwnd);
      arm_rtx t;
      if data_acked > 0 then t.on_writable ();
      true
    end
    else begin
      (* Duplicate ACK: the receiver is missing the segment at snd_una.
         Three in a row trigger fast retransmit (no RTO wait). *)
      if
        ack = t.snd_una
        && len = 0
        && unacked t > 0
        && (not (has flags Tcp_wire.syn))
        && not (has flags Tcp_wire.fin)
      then begin
        Metrics.incr t.dup_acks;
        t.dup_ack_streak <- t.dup_ack_streak + 1;
        if t.dup_ack_streak = 3 then begin
          t.dup_ack_streak <- 0;
          Metrics.incr t.fast_retransmits;
          Metrics.incr t.retransmits;
          if flight_start t Flight.Retransmit then begin
            Flight.add_string Flight.default " fast retransmit, seq ";
            Flight.add_int Flight.default t.snd_una;
            Flight.add_string Flight.default " (3 dup acks)";
            Flight.commit Flight.default
          end;
          t.ssthresh <- Int.max (t.cwnd / 2) (2 * t.config.mss);
          t.cwnd <- t.ssthresh;
          retransmit_head t;
          arm_rtx t
        end
      end;
      false
    end
  end
  else false

let segment_arrives t ~seq ~ack_seq ~flags ~window frame ~off ~len =
  Metrics.incr t.segs_received;
  t.snd_wnd <- window;
  if has flags Tcp_wire.rst then begin
    match t.st with
    | Closed | Listen -> ()
    | _ -> enter_closed t `Reset
  end
  else
    match t.st with
    | Closed | Listen -> () (* stack-level states; nothing to do here *)
    | Syn_sent ->
        if has flags Tcp_wire.syn && has flags Tcp_wire.ack then begin
          if ack_seq = t.snd_nxt then begin
            t.rcv_nxt <- seq_add seq 1;
            t.snd_una <- ack_seq;
            t.st <- Established;
            t.retries <- 0;
            t.rto <- t.config.rto_initial;
            Dk_sim.Engine.cancel t.rtx;
            send_ack t;
            t.on_connect ();
            try_output t
          end
        end
        else if has flags Tcp_wire.syn then begin
          (* Simultaneous open. *)
          t.rcv_nxt <- seq_add seq 1;
          t.st <- Syn_rcvd;
          emit_at t ~seq:t.snd_una Bytes.empty 0
            (Tcp_wire.syn lor Tcp_wire.ack)
        end
    | Syn_rcvd ->
        if has flags Tcp_wire.syn && not (has flags Tcp_wire.ack) then
          (* Duplicate SYN: re-answer. *)
          emit_at t ~seq:t.snd_una Bytes.empty 0
            (Tcp_wire.syn lor Tcp_wire.ack)
        else if process_ack t ~ack_seq ~flags ~len then begin
          t.st <- Established;
          t.on_connect ();
          let readable = accept_payload t ~seq frame ~off ~len in
          if len > 0 then send_ack t;
          if readable then t.on_readable ();
          try_output t
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
      ->
        let acked = process_ack t ~ack_seq ~flags ~len in
        let readable =
          match t.st with
          | Established | Fin_wait_1 | Fin_wait_2 ->
              accept_payload t ~seq frame ~off ~len
          | _ -> false
        in
        (* Peer FIN handling. The FIN occupies the sequence slot right
           after the segment's payload. A FIN whose slot is beyond
           rcv_nxt (data still missing) is ignored — the peer will
           retransmit it and the gap will have filled by then. *)
        let fin_pos = seq_add seq len in
        let fin_now =
          has flags Tcp_wire.fin && fin_pos = t.rcv_nxt && t.peer_fin = None
        in
        if fin_now then begin
          t.peer_fin <- Some fin_pos;
          t.rcv_nxt <- seq_add t.rcv_nxt 1;
          send_ack t;
          t.on_peer_fin ();
          match t.st with
          | Established -> t.st <- Close_wait
          | Fin_wait_1 ->
              (* Did they also ack our FIN? *)
              if t.fin_sent && t.snd_una = seq_add t.fin_seq 1 then
                enter_time_wait t
              else t.st <- Closing
          | Fin_wait_2 -> enter_time_wait t
          | _ -> ()
        end
        else if has flags Tcp_wire.fin && t.peer_fin <> None then
          (* Retransmitted FIN: re-ack so the peer stops. *)
          send_ack t
        else if len > 0 then send_ack t;
        (* Our FIN fully acked? *)
        if t.fin_sent && t.snd_una = seq_add t.fin_seq 1 then begin
          match t.st with
          | Fin_wait_1 -> t.st <- Fin_wait_2
          | Closing -> enter_time_wait t
          | Last_ack -> enter_closed t `Normal
          | _ -> ()
        end;
        if readable then t.on_readable ();
        if acked then try_output t
    | Time_wait ->
        (* Re-ack retransmitted FINs. *)
        if has flags Tcp_wire.fin then send_ack t
