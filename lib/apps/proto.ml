type request = Get of string | Set of string * string | Del of string

type response = Value of string | Not_found | Stored | Deleted

let request_segments = function
  | Get key -> [ "G"; key ]
  | Set (key, value) -> [ "S"; key; value ]
  | Del key -> [ "D"; key ]

let request_of_segments = function
  | [ "G"; key ] -> Some (Get key)
  | [ "S"; key; value ] -> Some (Set (key, value))
  | [ "D"; key ] -> Some (Del key)
  | _ -> None

let response_segments = function
  | Value v -> [ "+"; v ]
  | Not_found -> [ "-" ]
  | Stored -> [ "!" ]
  | Deleted -> [ "x" ]

let response_of_segments = function
  | [ "+"; v ] -> Some (Value v)
  | [ "-" ] -> Some Not_found
  | [ "!" ] -> Some Stored
  | [ "x" ] -> Some Deleted
  | _ -> None

let segments_of_sga sga =
  List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga)

let request_sga r = Dk_mem.Sga.of_strings (request_segments r)
let response_sga r = Dk_mem.Sga.of_strings (response_segments r)
let request_of_sga sga = request_of_segments (segments_of_sga sga)
let response_of_sga sga = response_of_segments (segments_of_sga sga)

let value_response_sga buf =
  Dk_mem.Sga.of_buffers [ Dk_mem.Buffer.of_string "+"; Dk_mem.Buffer.dup buf ]

(* ---- single-datagram (UDP) codec ----
   One flat string per request/response, chosen so a GET is exactly the
   segment encoding flattened ("G" ^ key) and a Value response is
   exactly "+" ^ value: a device pipeline that serves GETs from its
   table ([K_rest 1], hit prefix "+") produces byte-identical replies
   to the host path. SET carries a 2-byte big-endian key length so the
   key/value split is unambiguous in one segment. *)

let u16be n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff))

let udp_request_string = function
  | Get key -> "G" ^ key
  | Set (key, value) ->
      if String.length key > 0xffff then invalid_arg "Proto: key too long"
      else "S" ^ u16be (String.length key) ^ key ^ value
  | Del key -> "D" ^ key

let udp_request_of_string s =
  let n = String.length s in
  if n = 0 then None
  else
    match s.[0] with
    | 'G' -> Some (Get (String.sub s 1 (n - 1)))
    | 'D' -> Some (Del (String.sub s 1 (n - 1)))
    | 'S' ->
        if n < 3 then None
        else
          let klen = (Char.code s.[1] lsl 8) lor Char.code s.[2] in
          if 3 + klen > n then None
          else
            Some (Set (String.sub s 3 klen, String.sub s (3 + klen) (n - 3 - klen)))
    | _ -> None

let udp_response_string = function
  | Value v -> "+" ^ v
  | Not_found -> "-"
  | Stored -> "!"
  | Deleted -> "x"
