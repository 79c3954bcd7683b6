(** Storage I/O queues: a log-structured, accelerator-specific layout
    (§5.3) directly on the block device.

    Each queue owns a contiguous range of blocks and treats it as an
    append-only record log. [push] appends one record — the framed sga
    plus a CRC-32 — straight to the device (doorbell + DMA + flash
    program, no syscalls, no VFS, no page cache, no copies charged);
    the token completes when the write is durable. [pop] streams
    records back from the head in FIFO order, reading blocks on demand.

    Because the layout is self-describing (length-prefixed, CRC-sealed
    records), a queue can be {!recover}ed from the device alone — the
    trade-off §5.3 raises is that only a libOS that knows this layout
    can read the data. *)

val create :
  tokens:Token.t ->
  engine:Dk_sim.Engine.t ->
  disp:Block_dispatch.t ->
  base_lba:int ->
  capacity_blocks:int ->
  ?existing_len:int ->
  unit ->
  Qimpl.t
(** [existing_len] resumes an already-written log (from {!recover});
    pops then replay existing records before any new pushes. *)

val recover :
  engine:Dk_sim.Engine.t ->
  disp:Block_dispatch.t ->
  base_lba:int ->
  capacity_blocks:int ->
  (int -> unit) ->
  unit
(** Scan the log from [base_lba], validating record CRCs, and pass the
    recovered byte length to the continuation (asynchronously — device
    reads take time). A torn or corrupt tail truncates the log there. *)
