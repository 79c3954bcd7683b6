(** Poll-mode NIC model (DPDK-class device, Table 1 left column; with
    [programmable:true], Table 1 right column).

    The NIC exposes descriptor-ring semantics: [transmit] costs one
    doorbell of CPU time and fails when the TX ring is full; received
    frames wait in a bounded RX ring and are lost when it overflows.
    There is no kernel anywhere on this path. A programmable NIC can
    additionally run one verified rx pipeline ({!Prog.pipeline}) on
    inbound frames at zero CPU cost — frames it drops never consume host
    cycles. *)

type t

type stats = {
  tx_frames : int;
  tx_bytes : int;
  tx_rejected : int; (** transmit attempts that found the TX ring full *)
  rx_frames : int;
  rx_bytes : int;
  rx_dropped : int;  (** frames lost to RX ring overflow *)
  rx_filtered : int; (** frames dropped on-device by a [Drop] stage *)
  rx_responded : int; (** frames answered from the device-resident table *)
}

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  ?fault:Dk_fault.Fault.t ->
  mac:int ->
  ?rx_capacity:int ->
  ?tx_capacity:int ->
  ?programmable:bool ->
  unit ->
  t
(** [fault] is the fault domain the NIC's injection sites consult
    (default: a fresh, unarmed one). *)

val mac : t -> int
val programmable : t -> bool

val set_ip : t -> int -> unit
(** The IPv4 address of the host stack on this NIC, which the respond
    path requires of a request as the stack does; the stack's
    [create] sets it. Until then the device answers no request. *)

(** {2 The rx pipeline and the device-resident table}

    A programmable NIC runs its {!Prog.pipeline} — the only program it
    holds — on every inbound frame, at device latency priced by
    {!Prog.pipeline_footprint} (one program element per 64 touched
    bytes on [Cost.device_prog_per_elem]) and zero host CPU. [Respond]
    verdicts are served from a bounded {!Table} and transmitted back
    without ringing any host doorbell; the reply is only sent when the
    request frame passes the host stack's own header checks and is
    addressed to its MAC and IPv4 address ({!Dk_wire.Frame.udp_reply}),
    otherwise the frame falls through to the host. *)

val set_rx_pipeline : t -> Prog.pipeline -> (unit, [ `Not_programmable ]) result
(** [[]] unloads the pipeline — the rx path is then byte-identical to
    a NIC that never had one. *)

val offload_enable :
  t ->
  ?obs_prefix:string ->
  capacity:int ->
  max_value:int ->
  unit ->
  (Table.t, [ `Not_programmable ]) result
(** Create (or return the existing) device-resident table. Counters
    are registered lazily here — offload-off runs register nothing. *)

val offload_table : t -> Table.t option

(** {3 Host → device control queue}

    Table writes from the host ride a dedicated doorbell
    ([nic.ctrl.doorbells]) with a permanently-zero coalescing window:
    each op charges the host one doorbell and has completed on the
    device before the call returns. kv SETs/DELs use this to
    update/invalidate the device entry {e before} their response is
    sent, which is what makes stale device GETs impossible. All return
    the no-op/failure value when no table is enabled. *)

val ctrl_insert : t -> string -> string -> (unit, [ `Rejected ]) result
val ctrl_update : t -> string -> string -> bool
val ctrl_invalidate : t -> string -> bool

val transmit : t -> dst:int -> string -> bool
(** Charge a doorbell (through the coalescing stage — see
    {!Doorbell}) and start DMA; [false] if the TX ring is full. *)

val transmit_many : t -> dst:int -> string list -> int
(** Submit several frames under one doorbell ring ({!Doorbell.group});
    returns how many the TX ring accepted. *)

val set_tx_window : t -> int64 -> unit
(** Tx doorbell coalescing window; [0] (the default from
    [Cost.tx_batch_window]) rings per frame, bit-identically to the
    unbatched path. *)

val tx_doorbells : t -> int
(** Doorbell rings so far on this NIC. *)

val poll_rx : t -> string option
(** Take the next received frame, if any (free — the poll-loop cost is
    charged by the caller, which knows how often it spins). *)

val stats : t -> stats

(** {2 Wiring (used by {!Fabric})} *)

val set_uplink :
  t -> (src:int -> dst:int -> departed:int -> string -> unit) -> unit
(** [departed] is the absolute DMA-completion (wire departure) time, in
    int ns ({!Dk_sim.Engine.now_ns}). *)

val receive : t -> string -> unit
(** Deliver a frame into the RX path (pipeline, if loaded, then ring). *)

val set_rx_notify : t -> (unit -> unit) -> unit
(** Invoked after each frame lands in the RX ring; network stacks use
    this to schedule their poll step in the event loop. *)
