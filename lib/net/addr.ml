type mac = int
type ip = int

let mac_broadcast = 0xffffffffffff

(* 0x02 in the first octet marks a locally-administered address. *)
let mac_of_index n = 0x020000000000 lor (n land 0xffffffff)

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | Some _ | None -> invalid_arg "Addr.ip_of_string"
      in
      (octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d
  | _ -> invalid_arg "Addr.ip_of_string"

let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d"
    ((ip lsr 24) land 0xff)
    ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff)
    (ip land 0xff)

type endpoint = { ip : ip; port : int }

let endpoint ip port =
  if port < 0 || port > 0xffff then invalid_arg "Addr.endpoint";
  { ip; port }

let equal_endpoint a b = a.ip = b.ip && a.port = b.port
