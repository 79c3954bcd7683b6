(** RDMA I/O queues (the RDMA-class libOS, Table 1 middle column).

    The device provides reliable delivery but, as §2 notes, "to send and
    receive data, applications must still supply OS buffer management
    and flow control". This libOS supplies both:

    - {b Buffer management}: it keeps [depth] registered receive buffers
      posted at all times, replenishing from the memory manager as
      messages arrive, so the device never hits receiver-not-ready.
    - {b Flow control}: it caps in-flight sends at [depth] credits,
      queueing excess pushes, so a burst can never exceed the receive
      buffers the peer has posted.

    Pops deliver the receive buffer itself (zero copy): the application
    frees it when done, and free-protection covers the in-flight
    window. *)

val create :
  tokens:Token.t ->
  manager:Dk_mem.Manager.t ->
  qp:Dk_device.Rdma.qp ->
  ?depth:int ->
  unit ->
  (Qimpl.t, Types.error) result
(** The queue pair must already be connected; [depth] defaults to 64
    receive buffers of 16 KiB each (the largest message a push may
    carry). Both endpoints must
    use the same [depth] for the credit scheme to be safe. *)
