(* Big-endian 16-bit word accumulation as a tail-recursive loop: no
   ref cells, so the rx hot path (checksum verification runs on every
   offloaded frame) allocates nothing here. One bounds-checked load per
   word. *)
let rec sum_words buf i stop acc =
  if i < stop then sum_words buf (i + 2) stop (acc + Bytes.get_uint16_be buf i)
  else acc

let ones_complement_sum ?(init = 0) buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.ones_complement_sum";
  let sum = sum_words buf off (off + len - 1) init in
  if len land 1 = 1 then
    sum + (Char.code (Bytes.get buf (off + len - 1)) lsl 8)
  else sum

(* Fold the carries back in until the sum fits 16 bits. Pure recursion
   (terminates: each step strictly shrinks a positive sum) — no ref
   cell, the fold runs on the rx hot path for every offloaded frame. *)
let rec finish sum =
  if sum lsr 16 = 0 then lnot sum land 0xffff
  else finish ((sum land 0xffff) + (sum lsr 16))

let compute buf off len = finish (ones_complement_sum buf off len)

let verify buf off len =
  finish (ones_complement_sum buf off len) = 0
