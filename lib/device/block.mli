(** NVMe-style block device with paired submission/completion queues
    (SPDK-class device, Table 1 left column).

    Poll-mode: submissions cost a doorbell, completions are discovered
    by polling the CQ. Reads/writes of one block each; flash latency and
    transfer time come from the cost model. There is no kernel, no page
    cache and no file system — a libOS must bring its own layout
    (§5.3). *)

type t

type status = [ `Ok | `Bad_lba | `Io_error ]
(** [`Io_error] is only produced under an armed {!Dk_fault} plan
    ([block.error] site): the media failed the command. The libOS
    retry policy lives in [Block_dispatch], not here. *)

type completion = {
  wr_id : int;
  status : status;
  data : string option; (** filled for reads *)
}

type stats = { reads : int; writes : int; rejected : int }

val create :
  engine:Dk_sim.Engine.t ->
  cost:Dk_sim.Cost.t ->
  ?fault:Dk_fault.Fault.t ->
  ?block_size:int ->
  ?block_count:int ->
  ?sq_depth:int ->
  ?programmable:bool ->
  unit ->
  t
(** [fault] is the fault domain the device's injection sites consult
    (default: a fresh, unarmed one). [programmable] models an
    FPGA/computational SSD (Table 1, right column): it can run
    verified map programs on data in flight. *)

val programmable : t -> bool

val set_write_prog : t -> Prog.map option -> (unit, [ `Not_programmable ]) result
(** Transform data on the way to flash (e.g. encryption/compression,
    §4.3) at zero host CPU cost; adds device program latency. *)

val set_read_prog : t -> Prog.map option -> (unit, [ `Not_programmable ]) result
(** Transform data on the way back (e.g. decryption). *)

val block_size : t -> int

val engine : t -> Dk_sim.Engine.t
(** The simulation engine the device schedules completions on (lets
    dispatch layers schedule retries without threading it twice). *)

val submit_read : t -> wr_id:int -> lba:int -> bool
(** [false] when the submission queue is full. *)

val submit_write : t -> wr_id:int -> lba:int -> string -> bool
(** Data longer than a block is rejected with [Invalid_argument];
    shorter data is zero-padded. [false] when the SQ is full. *)

type op =
  | Read of { wr_id : int; lba : int }
  | Write of { wr_id : int; lba : int; data : string }

val submit_many : t -> op list -> int
(** Submit several commands under one SQ doorbell ring
    ({!Doorbell.group}); returns how many the SQ accepted. *)

val set_sq_window : t -> int64 -> unit
(** SQ doorbell coalescing window; [0] rings per command (the
    unbatched path). *)

val sq_doorbells : t -> int
(** Doorbell rings so far on this device. *)

val poll_cq : t -> completion option
val cq_pending : t -> int
val outstanding : t -> int
val stats : t -> stats

val set_cq_notify : t -> (unit -> unit) -> unit
(** Invoked whenever a completion lands in the CQ; poll-mode consumers
    can ignore this, interrupt-style consumers (the simulated kernel)
    use it to schedule their bottom half. *)
