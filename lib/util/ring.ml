type t = {
  data : bytes;
  cap : int;
  mutable head : int; (* read position *)
  mutable len : int;  (* bytes stored *)
}

let create cap =
  if cap <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Bytes.create cap; cap; head = 0; len = 0 }

let capacity t = t.cap
let length t = t.len
let available t = t.cap - t.len
let is_empty t = t.len = 0
let is_full t = t.len = t.cap

(* Copy [n] bytes of [src] at [soff] into the ring starting at the ring's
   tail; the caller guarantees [n <= available t]. Handles wraparound with
   at most two blits. *)
let blit_in t src soff n =
  let tail = (t.head + t.len) mod t.cap in
  let first = Int.min n (t.cap - tail) in
  Bytes.blit src soff t.data tail first;
  if n > first then Bytes.blit src (soff + first) t.data 0 (n - first)

(* Copy [n] stored bytes starting at ring index [pos] out to [dst]. *)
let blit_out t pos dst doff n =
  let first = Int.min n (t.cap - pos) in
  Bytes.blit t.data pos dst doff first;
  if n > first then Bytes.blit t.data 0 dst (doff + first) (n - first)

let write t src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Ring.write";
  let n = Int.min len (available t) in
  blit_in t src off n;
  t.len <- t.len + n;
  n

let peek_at t ~skip dst off len =
  if skip < 0 || off < 0 || len < 0 || off + len > Bytes.length dst then
    invalid_arg "Ring.peek_at";
  let n = Int.max 0 (Int.min len (t.len - skip)) in
  if n > 0 then blit_out t ((t.head + skip) mod t.cap) dst off n;
  n

let peek t dst off len = peek_at t ~skip:0 dst off len

let drop t n =
  if n < 0 then invalid_arg "Ring.drop";
  let n = Int.min n t.len in
  t.head <- (t.head + n) mod t.cap;
  t.len <- t.len - n;
  n

let read t dst off len =
  let n = peek t dst off len in
  ignore (drop t n);
  n

let write_string t s =
  write t (Bytes.unsafe_of_string s) 0 (String.length s)

let read_all t =
  let buf = Bytes.create t.len in
  let n = read t buf 0 t.len in
  assert (n = Bytes.length buf);
  Bytes.unsafe_to_string buf

let clear t =
  t.head <- 0;
  t.len <- 0
