(** User-level TCP: connection state machine with handshake, teardown,
    cumulative ACKs, out-of-order reassembly, flow control (advertised
    windows), retransmission with exponential backoff, and slow-start /
    congestion-avoidance.

    This is the "complete user-level TCP stack" §2 says applications
    must supply to use a raw kernel-bypass NIC; here the libOS supplies
    it. The module is transport-only: segments enter via
    {!segment_arrives} and leave via the [emit] callback, so it is
    independently testable without a NIC. *)

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
  rto_initial : int64;   (** retransmission timeout, ns *)
  rto_max : int64;
  max_retries : int;
  time_wait : int64;     (** 2MSL, ns *)
}

val default_config : config

type close_reason = [ `Normal | `Reset | `Timeout ]

type conn

type stats = {
  segs_sent : int;
  segs_received : int;
  bytes_sent : int;
  bytes_received : int;
  retransmits : int;       (** total, timeout- plus dupack-triggered *)
  fast_retransmits : int;  (** triggered by three duplicate ACKs *)
  dup_acks : int;
  out_of_order : int;
}

(** {2 Creation (used by the stack)} *)

type emit =
  seq:int -> ack_seq:int -> flags:int -> window:int -> bytes -> int -> unit
(** How a connection hands a departing segment to the stack, which
    knows both ports and addresses: [emit ~seq ~ack_seq ~flags ~window
    frame len], with [flags] as {!Dk_wire.Tcp_wire}'s bits. A segment
    with [len] payload bytes carries them at [payload_off] in [frame],
    a buffer of exactly [payload_off + len] bytes that the stack
    completes in place; a segment without payload passes
    [Bytes.empty] and 0. *)

val create_active :
  engine:Dk_sim.Engine.t ->
  config:config ->
  local:Addr.endpoint ->
  remote:Addr.endpoint ->
  iss:int ->
  payload_off:int ->
  emit:emit ->
  conn
(** Sends the SYN immediately (state [Syn_sent]).

    [payload_off] is where a frame's payload starts, after every
    header the stack writes. *)

val create_passive :
  engine:Dk_sim.Engine.t ->
  config:config ->
  local:Addr.endpoint ->
  remote:Addr.endpoint ->
  iss:int ->
  payload_off:int ->
  emit:emit ->
  remote_seq:int ->
  conn
(** For a SYN that arrived at a listener: replies SYN-ACK
    (state [Syn_rcvd]). [payload_off] and [emit] as for
    {!create_active}. *)

val segment_arrives :
  conn ->
  seq:int ->
  ack_seq:int ->
  flags:int ->
  window:int ->
  bytes ->
  off:int ->
  len:int ->
  unit
(** A segment arrives: its header fields ([flags] as
    {!Dk_wire.Tcp_wire}'s bits) and its payload, the [len] bytes at
    [off] in the frame. In-order payload is written from the frame
    straight into the receive ring; the frame is not kept after the
    call. *)

(** {2 Application interface} *)

val state : conn -> state
val local : conn -> Addr.endpoint
val remote : conn -> Addr.endpoint

val send : conn -> ?off:int -> string -> int
(** [send conn ~off data] offers the bytes of [data] from [off]
    (default 0) on; returns how many were accepted into the send buffer
    (0 when full or not writable in the current state). A caller with a
    partly sent message keeps a cursor and passes it as [off]. *)

val send_space : conn -> int
val recv_ready : conn -> int
val recv : conn -> int -> string
val recv_into : conn -> bytes -> int -> int -> int

val close : conn -> unit
(** Graceful: FIN after queued data drains. *)

val abort : conn -> unit
(** RST and drop. *)

val set_on_connect : conn -> (unit -> unit) -> unit
(** Runs when the connection reaches [Established]. *)

val set_on_readable : conn -> (unit -> unit) -> unit

(** [set_on_peer_fin] runs once when the peer's FIN is accepted (end of
    inbound data; already-received bytes remain readable). *)
val set_on_peer_fin : conn -> (unit -> unit) -> unit
val set_on_writable : conn -> (unit -> unit) -> unit
val set_on_close : conn -> (close_reason -> unit) -> unit

val set_internal_teardown : conn -> (close_reason -> unit) -> unit
(** Reserved for the owning stack: runs before [on_close] when the
    connection reaches [Closed], so the stack can drop its demux
    entry. *)

val stats : conn -> stats
