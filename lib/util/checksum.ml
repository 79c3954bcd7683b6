(* Big-endian 16-bit word accumulation as a tail-recursive loop: no
   ref cells, so the rx hot path allocates nothing here. Sums the tail
   that is too short for a 64-bit load. *)
let rec sum_words buf i stop acc =
  if i < stop then sum_words buf (i + 2) stop (acc + Bytes.get_uint16_be buf i)
  else acc

(* A big-endian 64-bit load holds four 16-bit words w0 w1 w2 w3, w0 in
   the top bits. Masking with [lane_mask] keeps w1 (bits 32-47) and w3
   (bits 0-15); masking after a 16-bit shift keeps w0 and w2 in the same
   places. So each load adds two words into each of two 32-bit lanes,
   and low lane + high lane is the plain sum of the words. *)
let lane_mask = 0x0000ffff0000ffffL

let[@inline] lanes x =
  Int64.to_int (Int64.logand x lane_mask)
  + Int64.to_int (Int64.logand (Int64.shift_right_logical x 16) lane_mask)

(* Four loads per step while they fit, then one at a time. *)
let rec sum_lanes buf i stop acc =
  if i + 32 <= stop then
    sum_lanes buf (i + 32) stop
      (acc
      + lanes (Bytes.get_int64_be buf i)
      + lanes (Bytes.get_int64_be buf (i + 8))
      + lanes (Bytes.get_int64_be buf (i + 16))
      + lanes (Bytes.get_int64_be buf (i + 24)))
  else if i < stop then
    sum_lanes buf (i + 8) stop (acc + lanes (Bytes.get_int64_be buf i))
  else acc

(* A lane grows by at most 2 * 0xffff per load, so after 4,096 loads the
   low lane is below 2^30 and has not carried into the high lane, and
   the high lane is below 2^62 (under max_int). Folding then is exact. *)
let chunk_bytes = 4096 * 8

let rec sum_chunks buf i stop acc =
  let next = Int.min stop (i + chunk_bytes) in
  let both = sum_lanes buf i next 0 in
  let acc = acc + (both land 0xffffffff) + (both lsr 32) in
  if next < stop then sum_chunks buf next stop acc else acc

let sum init buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.ones_complement_sum";
  let wide_stop = off + (len land lnot 7) in
  let acc = sum_chunks buf off wide_stop init in
  let acc = sum_words buf wide_stop (off + len - 1) acc in
  if len land 1 = 1 then
    acc + (Char.code (Bytes.get buf (off + len - 1)) lsl 8)
  else acc

let ones_complement_sum ?(init = 0) buf off len = sum init buf off len

(* The 12-byte pseudo header (source, destination, zero, protocol,
   length) summed as its six 16-bit words, without materializing it. *)
let pseudo_header_sum ~src ~dst ~proto ~len =
  ((src lsr 16) land 0xffff)
  + (src land 0xffff)
  + ((dst lsr 16) land 0xffff)
  + (dst land 0xffff)
  + (proto land 0xff)
  + (len land 0xffff)

(* Fold the carries back in until the sum fits 16 bits. Pure recursion
   (terminates: each step strictly shrinks a positive sum) — no ref
   cell, the fold runs on the rx hot path for every offloaded frame. *)
let rec finish sum =
  if sum lsr 16 = 0 then lnot sum land 0xffff
  else finish ((sum land 0xffff) + (sum lsr 16))

let compute buf off len = finish (sum 0 buf off len)

let transport ~src ~dst ~proto buf off len =
  finish (sum (pseudo_header_sum ~src ~dst ~proto ~len) buf off len)

let verify buf off len = finish (sum 0 buf off len) = 0
