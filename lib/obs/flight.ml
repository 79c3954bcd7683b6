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
   Eviction never reads the prefix back: each held entry's encoded size
   also sits in a FIFO of ints, so making room is integer bookkeeping. *)
let header_len = 2
let payload_fixed = 9 (* timestamp + tag *)
let label_off = header_len + payload_fixed

(* Widest rendered number: "-9223372036854775808" (%Ld of Int64.min_int). *)
let num_width = 20

type t = {
  data : bytes;           (* the byte ring; [capacity] bytes *)
  capacity : int;
  mutable head : int;     (* offset of the oldest held entry *)
  mutable used : int;     (* bytes held *)
  sizes : int array;      (* each held entry's size, oldest at [first] *)
  mutable first : int;
  entry : bytes;          (* the open entry, in wire format; [capacity] bytes *)
  mutable pos : int;      (* end of the open entry's label so far *)
  num : bytes;            (* numbers render right-aligned here first *)
  mutable on : bool;
  mutable count : int;    (* entries currently held *)
  mutable total : int;    (* entries ever recorded *)
  mutable dropped : int;  (* entries evicted to make room *)
}

let create ?(capacity = 64 * 1024) () =
  if capacity < label_off + 1 then
    invalid_arg "Flight.create: capacity too small for one entry";
  {
    data = Bytes.create capacity;
    capacity;
    head = 0;
    used = 0;
    (* an entry is at least [label_off] bytes, so this many never fill *)
    sizes = Array.make ((capacity / label_off) + 1) 0;
    first = 0;
    entry = Bytes.create capacity;
    pos = label_off;
    num = Bytes.create num_width;
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

(* [i + d] for [0 <= i < n] and [0 <= d <= n], wrapped into [0, n). *)
let wrap i d n =
  let j = i + d in
  if j >= n then j - n else j

let evict_one t =
  let size = t.sizes.(t.first) in
  t.first <- wrap t.first 1 (Array.length t.sizes);
  t.head <- wrap t.head size t.capacity;
  t.used <- t.used - size;
  t.count <- t.count - 1;
  t.dropped <- t.dropped + 1

(* An entry is built in [t.entry] by [start], the [add_*] appenders and
   [commit], then copied into the ring: one blit, two when it wraps. Labels are
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
  let room = t.capacity - t.pos in
  let n = if len < room then len else room in
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
  while t.capacity - t.used < need do
    evict_one t
  done;
  let tail = wrap t.head t.used t.capacity in
  let first = t.capacity - tail in
  if need <= first then Bytes.blit t.entry 0 t.data tail need
  else begin
    Bytes.blit t.entry 0 t.data tail first;
    Bytes.blit t.entry first t.data 0 (need - first)
  end;
  t.sizes.(wrap t.first t.count (Array.length t.sizes)) <- need;
  t.used <- t.used + need;
  t.count <- t.count + 1;
  t.total <- t.total + 1

let record t ~now kind what =
  if start t ~now kind then begin
    add_string t what;
    commit t
  end

let entries t =
  let len = t.used in
  let buf = Bytes.create (Int.max 1 len) in
  let first = Int.min len (t.capacity - t.head) in
  Bytes.blit t.data t.head buf 0 first;
  Bytes.blit t.data 0 buf first (len - first);
  let rec parse off acc =
    if off + header_len > len then List.rev acc
    else begin
      let plen = Bytes.get_uint16_be buf off in
      if off + header_len + plen > len then List.rev acc
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
  t.head <- 0;
  t.used <- 0;
  t.first <- 0;
  t.count <- 0;
  t.total <- 0;
  t.dropped <- 0

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%12Ld  %-10s %s@\n" e.at (kind_name e.kind) e.what)
    (entries t)
