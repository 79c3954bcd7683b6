(** Network addresses: 48-bit MAC and IPv4 addresses as OCaml ints,
    plus (ip, port) endpoints. *)

type mac = int
type ip = int

val mac_broadcast : mac
val mac_of_index : int -> mac
(** Locally-administered MAC for host [n] of a simulation. *)

val ip_of_string : string -> ip
(** Dotted quad. @raise Invalid_argument on malformed input. *)

val ip_to_string : ip -> string

type endpoint = { ip : ip; port : int }

val endpoint : ip -> int -> endpoint
val equal_endpoint : endpoint -> endpoint -> bool
