(** Shared completion routing for one block device.

    The device has a single completion queue; this dispatcher lets any
    number of file queues (and the recovery scanner) submit operations
    with per-operation continuations.

    Transient device errors ([`Io_error], produced only under an armed
    {!Dk_fault} plan) are absorbed here: the operation is resubmitted
    after a bounded exponential backoff (10us * 2{^n}, up to 4 times)
    before the error reaches the continuation.
    Counters: [core.block.retries], [core.block.recovered],
    [core.block.gave_up]. *)

type t

val create : Dk_device.Block.t -> t

val block : t -> Dk_device.Block.t

val read : t -> lba:int -> (Dk_device.Block.completion -> unit) -> bool
(** [false] if the submission queue is full on the {e first} submission
    (continuation dropped); retries of errored operations are never
    dropped on a full SQ — they back off and resubmit. *)

val write :
  t -> lba:int -> string -> (Dk_device.Block.completion -> unit) -> bool
