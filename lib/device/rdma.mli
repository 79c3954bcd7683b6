(** RDMA RC NIC model (Table 1 middle column: kernel bypass plus *some*
    OS features — a reliable transport — but not buffer management or
    flow control).

    The device enforces the two obligations §2 highlights:

    - {b Memory registration}: every buffer named by a work request must
      belong to a region registered with this device, or the request
      completes with [`Not_registered].
    - {b Receiver buffering}: a SEND arriving at a queue pair with no
      posted receive buffer fails back to the sender as [`Rnr]
      (receiver-not-ready); one with a too-small buffer fails as
      [`Too_long]. Supplying enough right-sized buffers — flow control —
      is the libOS's job.

    Delivery is reliable and in-order (RC semantics); the wire/NIC
    latencies come from the cost model. *)

type t
type qp

type status =
  [ `Ok
  | `Not_registered
  | `Rnr
  | `Too_long
  | `Not_connected
  | `Rkey
  | `Qp_broken
    (** the queue pair was severed by an armed {!Dk_fault} plan
        ([rdma.qp_break]); both ends are disconnected and later posts
        complete [`Not_connected] *) ]

type wc = {
  wr_id : int;
  status : status;
  len : int;
  buffer : Dk_mem.Buffer.t option; (** the receive buffer, on recv CQs *)
}

type stats = {
  sends : int;
  recvs : int;
  rnr_events : int;
  registration_failures : int;
}

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  ?fault:Dk_fault.Fault.t ->
  ?is_registered:(int option -> bool) ->
  unit ->
  t
(** [fault] is the fault domain the queue pairs' injection site
    consults (default: a fresh, unarmed one). [is_registered] receives
    a buffer's region id ([None] for unmanaged memory); default
    rejects everything, so a memory manager hook must be installed
    before traffic flows. *)

val set_mr_check : t -> (int option -> bool) -> unit

val create_qp : t -> qp
val connect : qp -> qp -> unit
(** Cross-connect two queue pairs (the rdmacm handshake is control-path
    and not modelled). @raise Invalid_argument if either is connected. *)

val post_recv : qp -> wr_id:int -> Dk_mem.Buffer.t -> unit
(** Make a buffer available for one incoming SEND. Takes an I/O hold. *)

val post_send : qp -> wr_id:int -> Dk_mem.Sga.t -> unit
(** Transmit the sga as one message; completion appears on the send CQ.
    Takes I/O holds for the duration of the DMA (free-protection). The
    doorbell is charged through the NIC's coalescing stage
    ({!Doorbell}); validation errors complete immediately without a
    doorbell, as before. *)

val post_send_many : qp -> (int * Dk_mem.Sga.t) list -> unit
(** Post several (wr_id, sga) sends under one doorbell ring
    ({!Doorbell.group}); per-message validation and completions are
    unchanged. *)

val set_tx_window : t -> int64 -> unit
(** Tx doorbell coalescing window for all work posted on this NIC;
    [0] rings per post (the unbatched path). *)

val tx_doorbells : t -> int
(** Doorbell rings so far on this NIC. *)

(** {2 One-sided operations (§5.1)}

    RDMA READ/WRITE access a window of the peer's registered memory
    with {e zero remote CPU involvement} — the trade the FaRM-style
    systems of §6 build on. The peer must first expose a window. *)

val expose_window : qp -> Dk_mem.Buffer.t -> (unit, [ `Not_registered ]) result
(** Make a registered buffer remotely accessible on this queue pair
    (simplified: one window per QP, offset-addressed). Takes an I/O
    hold for the lifetime of the window. *)

val post_read :
  qp -> wr_id:int -> remote_off:int -> len:int -> Dk_mem.Buffer.t -> unit
(** Read [len] bytes at [remote_off] of the peer's window into a local
    registered buffer. Completes on the send CQ with [`Ok] after one
    round trip; errors: [`Not_registered] (local buffer), [`Rkey]
    (no/short window). The peer's CPU is never involved. *)

val post_write :
  qp -> wr_id:int -> remote_off:int -> Dk_mem.Sga.t -> unit
(** Write the sga into the peer's window at [remote_off]; same error
    model as {!post_read}. *)

val poll_send_cq : qp -> wc option
val poll_recv_cq : qp -> wc option

val recv_posted : qp -> int

val set_recv_notify : qp -> (unit -> unit) -> unit
(** Invoked when a receive completion is delivered. *)

val set_send_notify : qp -> (unit -> unit) -> unit
(** Invoked when a send completion is delivered. *)

val stats : t -> stats
