(** Key-value wire protocol.

    Requests and responses are scatter-gather messages with one logical
    field per segment — the natural encoding on Demikernel queues
    (§4.2: the sga gives the device the compute granularity). The same
    segments travel over POSIX byte streams via the {!Dk_net.Framing}
    length-prefixed encoding. *)

type request =
  | Get of string
  | Set of string * string
  | Del of string

type response =
  | Value of string   (** GET hit *)
  | Not_found         (** GET/DEL miss *)
  | Stored            (** SET ok *)
  | Deleted           (** DEL ok *)

val request_segments : request -> string list
val request_of_segments : string list -> request option
val response_segments : response -> string list
val response_of_segments : string list -> response option

val request_sga : request -> Dk_mem.Sga.t
val response_sga : response -> Dk_mem.Sga.t
val request_of_sga : Dk_mem.Sga.t -> request option
val response_of_sga : Dk_mem.Sga.t -> response option

(** GET responses can avoid materialising the value: *)

val value_response_sga : Dk_mem.Buffer.t -> Dk_mem.Sga.t
(** Wrap a stored value buffer (a new reference) as a [Value] response
    without copying — the Redis zero-copy pattern of §4.5. *)

(** {2 Single-datagram (UDP) codec}

    One flat string per message, for the offloaded UDP kv path. A GET
    encodes as ["G" ^ key] and a [Value] reply as ["+" ^ value] — the
    exact bytes the NIC's device-resident table pipeline produces
    ([K_rest 1] key extraction, hit prefix ["+"]) — so device-served
    and host-served replies are wire-identical. SET carries a 2-byte
    big-endian key length ahead of the key. *)

val udp_request_string : request -> string
(** Raises [Invalid_argument] on a SET key longer than 65535 bytes. *)

val udp_request_of_string : string -> request option
val udp_response_string : response -> string
