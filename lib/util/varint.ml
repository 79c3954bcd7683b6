let encoded_size v =
  if v < 0 then invalid_arg "Varint.encoded_size";
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1

let write buf v =
  if v < 0 then invalid_arg "Varint.write";
  let rec loop v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      loop (v lsr 7)
    end
  in
  loop v

(* Toplevel so the per-call decode does not close over the buffer. *)
let rec read_loop buf len off i shift acc =
  if i >= len || shift > 56 then None
  else
    let b = Char.code (Bytes.get buf i) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then Some (acc, i - off + 1)
    else read_loop buf len off (i + 1) (shift + 7) acc
  [@@hot.alloc "the decoded (value, width) pair is the codec's return surface"]

let read buf off ~stop =
  let len = Int.min stop (Bytes.length buf) in
  if off < 0 || off >= len then None else read_loop buf len off off 0 0
