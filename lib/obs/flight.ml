type kind =
  | Enqueue
  | Dequeue
  | Push
  | Pop
  | Completion
  | Drop
  | Retransmit
  | Wakeup
  | Mark

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Push -> "push"
  | Pop -> "pop"
  | Completion -> "completion"
  | Drop -> "drop"
  | Retransmit -> "retransmit"
  | Wakeup -> "wakeup"
  | Mark -> "mark"

let kind_tag = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Push -> 2
  | Pop -> 3
  | Completion -> 4
  | Drop -> 5
  | Retransmit -> 6
  | Wakeup -> 7
  | Mark -> 8

let kind_of_tag = function
  | 0 -> Enqueue
  | 1 -> Dequeue
  | 2 -> Push
  | 3 -> Pop
  | 4 -> Completion
  | 5 -> Drop
  | 6 -> Retransmit
  | 7 -> Wakeup
  | _ -> Mark

type entry = { at : int64; kind : kind; what : string }

(* Wire format inside the byte ring, per entry:
   [2B payload length, big-endian][8B timestamp][1B kind tag][label].
   The length prefix makes eviction O(1) per evicted entry: read the
   prefix, drop that many bytes. *)
let header_len = 2
let payload_fixed = 9 (* timestamp + tag *)
let label_off = header_len + payload_fixed

(* Widest rendered number: "-9223372036854775808" (%Ld of Int64.min_int). *)
let num_width = 20

type t = {
  ring : Dk_util.Ring.t;
  capacity : int;
  entry : bytes;          (* the open entry, in wire format; [capacity] bytes *)
  mutable pos : int;      (* end of the open entry's label so far *)
  num : bytes;            (* numbers render right-aligned here first *)
  len_prefix : bytes;     (* eviction reads an entry's length prefix here *)
  mutable on : bool;
  mutable count : int;    (* entries currently in the ring *)
  mutable total : int;    (* entries ever recorded *)
  mutable dropped : int;  (* entries evicted to make room *)
}

let create ?(capacity = 64 * 1024) () =
  if capacity < label_off + 1 then
    invalid_arg "Flight.create: capacity too small for one entry";
  {
    ring = Dk_util.Ring.create capacity;
    capacity;
    entry = Bytes.create capacity;
    pos = label_off;
    num = Bytes.create num_width;
    len_prefix = Bytes.create header_len;
    on = true;
    count = 0;
    total = 0;
    dropped = 0;
  }

let default = create ()
[@@shard.per_shard
  "process-wide default flight recorder; shard-local code passes its own \
   recorder so entries stay within the shard"]

let set_enabled t on = t.on <- on

let evict_one t =
  let got = Dk_util.Ring.read t.ring t.len_prefix 0 header_len in
  if got = header_len then begin
    let len = Bytes.get_uint16_be t.len_prefix 0 in
    ignore (Dk_util.Ring.drop t.ring len);
    t.count <- t.count - 1;
    t.dropped <- t.dropped + 1
  end

(* An entry is built in [t.entry] by [start], the [add_*] appenders and
   [commit], then copied into the ring with one write. Labels are
   rendered by hand, so recording allocates nothing. A label longer
   than the ring allows is cut at [capacity] bytes of entry. *)

let start t ~now kind =
  t.on
  && begin
       Bytes.set_int64_be t.entry header_len now;
       Bytes.set_uint8 t.entry (header_len + 8) (kind_tag kind);
       t.pos <- label_off;
       true
     end

let add_bytes t b off len =
  let n = min len (t.capacity - t.pos) in
  if n > 0 then begin
    Bytes.blit b off t.entry t.pos n;
    t.pos <- t.pos + n
  end

let add_string t s = add_bytes t (Bytes.unsafe_of_string s) 0 (String.length s)

(* Decimal digits of [n <= 0], right-aligned so the last one lands just
   before [i]; returns the index of the first. Rendering the negated
   value keeps [min_int] in range. *)
let rec put_digits b i n =
  let i = i - 1 in
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then put_digits b i (n / 10) else i

let add_num t first = add_bytes t t.num first (num_width - first)

(* Like [Printf "%d"]. *)
let add_int t n =
  let i = put_digits t.num num_width (if n > 0 then -n else n) in
  if n < 0 then begin
    Bytes.unsafe_set t.num (i - 1) '-';
    add_num t (i - 1)
  end
  else add_num t i

let hex_digits = "0123456789abcdef"

let rec put_hex b i n =
  let i = i - 1 in
  Bytes.unsafe_set b i (String.unsafe_get hex_digits (n land 15));
  let n = n lsr 4 in
  if n <> 0 then put_hex b i n else i

(* Like [Printf "%x"]: a negative [n] prints as its unsigned 63 bits. *)
let add_hex t n = add_num t (put_hex t.num num_width n)

(* Like [Printf "%Ld"]. The value is split at 10^9 so both halves are
   native ints, carrying the sign in the first nonzero one. *)
let add_int64 t n =
  let hi = Int64.to_int (Int64.div n 1_000_000_000L) in
  let lo = Int64.to_int (Int64.rem n 1_000_000_000L) in
  if hi = 0 then add_int t lo
  else begin
    add_int t hi;
    let first = num_width - 9 in
    let i = put_digits t.num num_width (if lo > 0 then -lo else lo) in
    Bytes.fill t.num first (i - first) '0';
    add_num t first
  end

let commit t =
  let need = t.pos in
  Bytes.set_uint16_be t.entry 0 (need - header_len);
  while Dk_util.Ring.available t.ring < need do
    evict_one t
  done;
  ignore (Dk_util.Ring.write t.ring t.entry 0 need);
  t.count <- t.count + 1;
  t.total <- t.total + 1

let record t ~now kind what =
  if start t ~now kind then begin
    add_string t what;
    commit t
  end

let entries t =
  let len = Dk_util.Ring.length t.ring in
  let buf = Bytes.create (max 1 len) in
  let got = Dk_util.Ring.peek t.ring buf 0 len in
  let rec parse off acc =
    if off + header_len > got then List.rev acc
    else begin
      let plen = Bytes.get_uint16_be buf off in
      if off + header_len + plen > got then List.rev acc
      else
        let at = Bytes.get_int64_be buf (off + header_len) in
        let kind = kind_of_tag (Bytes.get_uint8 buf (off + header_len + 8)) in
        let what =
          Bytes.sub_string buf
            (off + header_len + payload_fixed)
            (plen - payload_fixed)
        in
        parse (off + header_len + plen) ({ at; kind; what } :: acc)
    end
  in
  parse 0 []

let length t = t.count
let recorded t = t.total
let evicted t = t.dropped

let clear t =
  Dk_util.Ring.clear t.ring;
  t.count <- 0;
  t.total <- 0;
  t.dropped <- 0

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%12Ld  %-10s %s@\n" e.at (kind_name e.kind) e.what)
    (entries t)
