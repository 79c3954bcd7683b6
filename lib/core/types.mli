(** Shared types of the Demikernel interface (Figure 3).

    System calls that give applications access to I/O return {e queue
    descriptors} ([qd]) instead of file descriptors; non-blocking data
    path operations return {e queue tokens} ([qtoken]) that are later
    redeemed with the [wait_*] calls. *)

type qd = int
type qtoken = int

type error =
  [ `Bad_qd        (** unknown or closed queue descriptor *)
  | `Bad_qtoken    (** unknown or already-redeemed token *)
  | `Queue_closed  (** operation on a closed/reset queue *)
  | `Would_block   (** non-blocking operation found nothing *)
  | `Refused       (** connection refused (RST) *)
  | `Timeout       (** wait timeout or transport timeout *)
  | `Conn_aborted  (** established transport gave up (ECONNABORTED):
                       TCP exhausted its RTO retries, or an RDMA queue
                       pair broke under an active operation *)
  | `Io_error      (** device I/O failed after the libOS exhausted its
                       retry budget (NVMe completion error) *)
  | `No_memory     (** memory manager exhausted *)
  | `Not_supported (** operation not valid for this queue kind *)
  | `Deadlock      (** the simulation ran out of events while waiting *)
  ]

type op_result =
  | Pushed                       (** push accepted by the libOS/device *)
  | Popped of Dk_mem.Sga.t       (** an atomic queue element *)
  | Accepted of qd               (** new connection queue (listen pops) *)
  | Failed of error

val pp_op_result : Format.formatter -> op_result -> unit
val error_to_string : error -> string
