(** Verified-by-construction queue programs (§4.2–4.3).

    The paper proposes letting applications express filter and map
    functions that the libOS offloads to a programmable accelerator when
    one is present, or runs on the CPU otherwise, and suggests a
    verified framework (BPF, Floem) so devices can trust them. Here the
    programs are a total, bounded combinator language whose one match
    language, {!pred}, is a queue's filter and a pipeline stage's guard
    alike: evaluation always terminates, touches a statically-known
    number of bytes ({!filter_footprint}), and cannot escape the
    payload (on the NIC, the frame cut where its UDP datagram ends). *)

type pred =
  | True
  | False
  | Len_ge of int          (** payload length >= n *)
  | Len_lt of int
  | Byte_eq of int * char  (** payload.[off] = c (false if out of range) *)
  | Byte_in of int * char * char (** inclusive range test *)
  | Prefix of string       (** payload starts with the literal *)
  | Hash_mod of int * int * int * int
      (** [Hash_mod (off, len, modulo, target)]: FNV-1a over the byte
          range, reduced mod [modulo], equals [target] — the
          key-steering filter of §4.3. *)
  | All of pred list
  | Any of pred list
  | Not of pred

type map =
  | Identity
  | Prepend of string
  | Append of string
  | Xor_mask of int    (** toy cipher standing in for offloaded crypto *)
  | Truncate of int
  | Chain of map list

val eval_pred : pred -> string -> bool
val eval_map : map -> string -> string

val filter_footprint : pred -> int
(** Upper bound on payload bytes a filter examines; drives the CPU
    fallback cost. *)

val map_footprint : map -> int -> int
(** [map_footprint m len]: bytes touched when mapping a payload of
    [len] bytes. *)

(** {2 Match → action pipelines}

    A stage pairs a {!pred} guard with an action — respond from a
    device-resident table, rewrite and continue, drop, or pass to the
    host. Every evaluator is structural recursion ([Respond] recurses
    only into its own [r_on_miss] subterm), so evaluation provably
    terminates; an out-of-range key falls through, never faults. *)

type key =
  | K_bytes of int * int   (** [K_bytes (off, len)]: literal byte range *)
  | K_rest of int          (** bytes from offset to end of frame *)

type action =
  | Pass                   (** stop the pipeline, deliver to the host *)
  | Drop
  | Rewrite of map         (** rewrite the frame, continue the pipeline *)
  | Respond of respond
      (** look the extracted key up in the device-resident table and
          answer from the device; the miss branch is a strict subterm *)

and respond = {
  r_key : key;
  r_hit_prefix : string;   (** prepended to the stored value in the reply *)
  r_max_value : int;       (** hits larger than this fall to [r_on_miss] *)
  r_on_miss : action;
}

type stage = { guard : pred; act : action }

type pipeline = stage list
(** Stages evaluate in order; the first stage whose guard matches runs
    its action. Falling off the end delivers to the host. *)

type verdict =
  | Deliver of string      (** hand the (possibly rewritten) frame up *)
  | Dropped
  | Responded of string    (** reply payload served from the device *)

val eval_pipeline :
  lookup:(string -> string option) -> pipeline -> string -> verdict
(** [lookup] is the device-resident table ({!Table.lookup} on the NIC;
    a CPU-side stand-in under fallback). Total: structural recursion,
    no loops. *)

val pipeline_footprint : pipeline -> int -> int
(** [pipeline_footprint p len]: upper bound on bytes examined/produced
    evaluating [p] on a [len]-byte frame, summing every stage and both
    branches of every [Respond] — static in the term, so it can price
    the device latency and the CPU fallback before any frame arrives.
    Monotone: appending a stage never decreases it. *)

val pp_pred : Format.formatter -> pred -> unit
val pp_map : Format.formatter -> map -> unit
