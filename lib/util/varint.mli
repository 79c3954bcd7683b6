(** LEB128-style variable-length integers, used by the wire framing layer
    (§5.2 of the paper) to delimit scatter-gather segments cheaply. *)

val encoded_size : int -> int
(** Bytes needed to encode a non-negative value. *)

val write : Buffer.t -> int -> unit
(** Append the encoding of a non-negative value.
    @raise Invalid_argument on negative input. *)

val read : bytes -> int -> stop:int -> (int * int) option
(** [read buf off ~stop] decodes a value at [off] from the bytes before
    [stop] (and before the end of [buf]); returns [(value, bytes
    consumed)] or [None] if those bytes end mid-encoding. *)
