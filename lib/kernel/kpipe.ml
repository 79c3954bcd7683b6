type t = { ring : Dk_util.Ring.t; mutable wclosed : bool }

let create ?(capacity = 65536) () =
  { ring = Dk_util.Ring.create capacity; wclosed = false }

let write t ?(off = 0) data =
  if t.wclosed then invalid_arg "Kpipe.write: write end closed"
  else
    Dk_util.Ring.write t.ring (Bytes.unsafe_of_string data) off
      (String.length data - off)

let read t n =
  let n = min n (Dk_util.Ring.length t.ring) in
  let buf = Bytes.create n in
  let got = Dk_util.Ring.read t.ring buf 0 n in
  Bytes.sub_string buf 0 got

let readable t = Dk_util.Ring.length t.ring
let writable t = Dk_util.Ring.available t.ring
let close_write t = t.wclosed <- true
let eof t = t.wclosed && Dk_util.Ring.is_empty t.ring
