module Itbl = Dk_util.Itbl

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Addr.mac;
  sender_ip : Addr.ip;
  target_mac : Addr.mac;
  target_ip : Addr.ip;
}

let size = 2 + 6 + 4 + 6 + 4

let set_u32 b i v = Bytes.set_int32_be b i (Int32.of_int v)

let set_u48 b i v =
  Bytes.set_uint16_be b i (v lsr 32);
  set_u32 b (i + 2) v

let get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xffff_ffff
let get_u48 b i = (Bytes.get_uint16_be b i lsl 32) lor get_u32 b (i + 2)

let write b ~off t =
  Bytes.set_uint16_be b off (match t.op with Request -> 1 | Reply -> 2);
  set_u48 b (off + 2) t.sender_mac;
  set_u32 b (off + 8) t.sender_ip;
  set_u48 b (off + 12) t.target_mac;
  set_u32 b (off + 18) t.target_ip

let decode b ~off ~len =
  if len < size then Error "arp: too short"
  else
    match Bytes.get_uint16_be b off with
    | (1 | 2) as op ->
        Ok
          {
            op = (if op = 1 then Request else Reply);
            sender_mac = get_u48 b (off + 2);
            sender_ip = get_u32 b (off + 8);
            target_mac = get_u48 b (off + 12);
            target_ip = get_u32 b (off + 18);
          }
    | _ -> Error "arp: bad op"

module Table = struct
  type table = {
    entries : Addr.mac Itbl.t;
    pending : (Addr.mac -> unit) list Itbl.t;
  }

  let create () = { entries = Itbl.create 16; pending = Itbl.create 4 }
  let lookup t ip = Itbl.find_opt t.entries ip
  let insert t ip mac = Itbl.replace t.entries ip mac

  let enqueue_pending t ip k =
    match Itbl.find_opt t.pending ip with
    | None ->
        Itbl.replace t.pending ip [ k ];
        true
    | Some ks ->
        Itbl.replace t.pending ip (k :: ks);
        false

  let resolve_pending t ip mac =
    insert t ip mac;
    match Itbl.find_opt t.pending ip with
    | None -> 0
    | Some ks ->
        Itbl.remove t.pending ip;
        List.iter (fun k -> k mac) (List.rev ks);
        List.length ks

  let drop_pending t ip =
    match Itbl.find_opt t.pending ip with
    | None -> 0
    | Some ks ->
        Itbl.remove t.pending ip;
        List.length ks
end
