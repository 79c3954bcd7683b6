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

(* Wire format inside the byte ring, per entry: [8B timestamp][1B
   tag][body]. The ring holds no lengths: each held entry's ring bytes
   and rendered size sit packed in a FIFO of ints, oldest first, so
   [entries] walks the FIFO and eviction is integer bookkeeping.

   A built entry ([start], the appenders, [commit]) has its kind's tag
   and its label as the body. A typed entry ([record_qd_op],
   [record_qtoken], [record_nic_rx]) has [shape * 16 + kind tag] and a
   binary body: each number as a zigzag varint, the queue name as a
   varint length and its bytes. Its label is rendered only when read
   ([entries], [pp]).

   Eviction follows each entry's rendered size, [rendered_fixed] = 11
   bytes plus the label. A varint is never longer than the number's
   decimal or hex text and the label's literals take no ring bytes, so
   an entry's ring bytes never exceed its rendered size, and the ring
   never holds more bytes than the rendered sizes it accounts for.
   [recorded], [evicted], [length] and every label are what building
   the same label would give. *)
let body_off = 9 (* timestamp + tag *)
let rendered_fixed = 11

(* A FIFO slot: rendered size above [ring_bits], ring bytes below. *)
let ring_bits = 31
let ring_mask = (1 lsl ring_bits) - 1

(* Typed shapes; a tag below [shape_unit] is a built entry. *)
let shape_unit = 16
let shape_qd_op = 1
let shape_qtoken = 2
let shape_nic_rx = 3

(* Widest rendered number: "-9223372036854775808" (%Ld of Int64.min_int). *)
let num_width = 20

type t = {
  data : bytes;           (* the byte ring; [capacity] bytes *)
  capacity : int;
  mutable head : int;     (* offset of the oldest held entry *)
  mutable used : int;     (* rendered bytes held *)
  mutable held : int;     (* ring bytes held, from [head] *)
  sizes : int array;      (* each held entry's sizes, oldest at [first] *)
  mutable first : int;
  entry : bytes;          (* the open entry, in wire format; [capacity] bytes *)
  mutable pos : int;      (* end of the open entry's body so far *)
  num : bytes;            (* numbers render right-aligned here first *)
  mutable on : bool;
  mutable count : int;    (* entries currently held *)
  mutable total : int;    (* entries ever recorded *)
  mutable dropped : int;  (* entries evicted to make room *)
}

let create ?(capacity = 64 * 1024) () =
  if capacity < rendered_fixed + 1 then
    invalid_arg "Flight.create: capacity too small for one entry";
  if capacity > ring_mask then
    invalid_arg "Flight.create: capacity must be below 2 GiB";
  {
    data = Bytes.create capacity;
    capacity;
    head = 0;
    used = 0;
    held = 0;
    (* an entry renders to at least [rendered_fixed] bytes, so this many
       never fill *)
    sizes = Array.make ((capacity / rendered_fixed) + 1) 0;
    first = 0;
    entry = Bytes.create capacity;
    pos = body_off;
    num = Bytes.create num_width;
    on = true;
    count = 0;
    total = 0;
    dropped = 0;
  }

let default = create ()
[@@shard.per_shard
  "process-wide default flight recorder, shared by every shard in the \
   process: every call site records into it, so entries of all shards \
   interleave in one ring, which only diagnostics read"]

let set_enabled t on = t.on <- on

(* [i + d] for [0 <= i < n] and [0 <= d <= n], wrapped into [0, n). *)
let wrap i d n =
  let j = i + d in
  if j >= n then j - n else j

let evict_one t =
  let size = t.sizes.(t.first) in
  let ring = size land ring_mask in
  t.first <- wrap t.first 1 (Array.length t.sizes);
  t.head <- wrap t.head ring t.capacity;
  t.held <- t.held - ring;
  t.used <- t.used - (size lsr ring_bits);
  t.count <- t.count - 1;
  t.dropped <- t.dropped + 1

(* An entry is built in [t.entry] (by [start], the [add_*] appenders and
   [commit], or by a typed [record_*]), then copied into the ring: one
   blit, two when it wraps. Labels are rendered by hand, so recording
   allocates nothing. A label longer than the ring allows is cut where
   its rendered size reaches [capacity]. *)

let open_entry t ~now tag =
  Bytes.set_int64_be t.entry 0 now;
  Bytes.set_uint8 t.entry 8 tag;
  t.pos <- body_off

let start t ~now kind =
  t.on
  && begin
       open_entry t ~now (kind_tag kind);
       true
     end

let add_bytes t b off len =
  let room = t.capacity - rendered_fixed - (t.pos - body_off) in
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

(* Copy the open entry, [t.pos] ring bytes standing for [rendered]
   bytes of accounting, into the ring. *)
let push t rendered =
  let ring = t.pos in
  while t.capacity - t.used < rendered do
    evict_one t
  done;
  let tail = wrap t.head t.held t.capacity in
  let first = t.capacity - tail in
  if ring <= first then Bytes.blit t.entry 0 t.data tail ring
  else begin
    Bytes.blit t.entry 0 t.data tail first;
    Bytes.blit t.entry first t.data 0 (ring - first)
  end;
  t.sizes.(wrap t.first t.count (Array.length t.sizes)) <-
    (rendered lsl ring_bits) lor ring;
  t.used <- t.used + rendered;
  t.held <- t.held + ring;
  t.count <- t.count + 1;
  t.total <- t.total + 1

let commit t = push t (rendered_fixed + t.pos - body_off)

let record t ~now kind what =
  if start t ~now kind then begin
    add_string t what;
    commit t
  end

(* ---- typed entries ---- *)

(* Length of [n]'s [%d] text; counting on [n <= 0] keeps [min_int] in
   range. *)
let rec neg_digits n acc =
  if n <= -10 then neg_digits (n / 10) (acc + 1) else acc

let dec_len n = if n < 0 then neg_digits n 2 else neg_digits (-n) 1

(* Length of [n]'s [%x] text. *)
let rec hex_len n acc =
  let n = n lsr 4 in
  if n = 0 then acc else hex_len n (acc + 1)

(* [v] as a varint: 7 bits per byte, low group first, of its 63 bits
   read unsigned; at most 9 bytes. *)
let rec put_varint t v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set t.entry t.pos (Char.unsafe_chr v);
    t.pos <- t.pos + 1
  end
  else begin
    Bytes.unsafe_set t.entry t.pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    t.pos <- t.pos + 1;
    put_varint t (v lsr 7)
  end

(* Zigzag first, so a small negative number stays short. *)
let put_int t n = put_varint t ((n lsl 1) lxor (n asr 62))

(* A typed label that does not fit the ring whole is built with the
   appenders instead, so it is cut as any label. *)

let record_qd_op t ~now kind ~qd name ~tok =
  if t.on then begin
    let len = String.length name in
    (* 11: the literals "qd ", " (" and ") tok " *)
    let rendered = rendered_fixed + 11 + dec_len qd + len + dec_len tok in
    if rendered <= t.capacity then begin
      open_entry t ~now ((shape_qd_op * shape_unit) + kind_tag kind);
      put_int t qd;
      put_varint t len;
      Bytes.blit_string name 0 t.entry t.pos len;
      t.pos <- t.pos + len;
      put_int t tok;
      push t rendered
    end
    else begin
      open_entry t ~now (kind_tag kind);
      add_string t "qd ";
      add_int t qd;
      add_string t " (";
      add_string t name;
      add_string t ") tok ";
      add_int t tok;
      commit t
    end
  end

let record_qtoken t ~now tok =
  if t.on then begin
    let rendered = rendered_fixed + 7 (* "qtoken " *) + dec_len tok in
    if rendered <= t.capacity then begin
      open_entry t ~now ((shape_qtoken * shape_unit) + kind_tag Completion);
      put_int t tok;
      push t rendered
    end
    else begin
      open_entry t ~now (kind_tag Completion);
      add_string t "qtoken ";
      add_int t tok;
      commit t
    end
  end

let record_nic_rx t ~now ~mac ~len ~ring =
  if t.on then begin
    (* 17: the literals "nic ", " rx ", "B (ring " and ")" *)
    let rendered =
      rendered_fixed + 17 + hex_len mac 1 + dec_len len + dec_len ring
    in
    if rendered <= t.capacity then begin
      open_entry t ~now ((shape_nic_rx * shape_unit) + kind_tag Enqueue);
      put_int t mac;
      put_int t len;
      put_int t ring;
      push t rendered
    end
    else begin
      open_entry t ~now (kind_tag Enqueue);
      add_string t "nic ";
      add_hex t mac;
      add_string t " rx ";
      add_int t len;
      add_string t "B (ring ";
      add_int t ring;
      add_string t ")";
      commit t
    end
  end

(* ---- reading ---- *)

(* The varint at [off]: its value and the offset after it. *)
let get_varint buf off =
  let rec go off shift acc =
    let b = Bytes.get_uint8 buf off in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, off + 1) else go (off + 1) (shift + 7) acc
  in
  go off 0 0

let get_int buf off =
  let v, off = get_varint buf off in
  ((v lsr 1) lxor -(v land 1), off)

(* A typed body's label. Reading is cold, so [Printf] renders it, and
   an entry still open in [t.entry] is left alone. *)
let render_typed shape buf off =
  if shape = shape_qd_op then begin
    let qd, off = get_int buf off in
    let len, off = get_varint buf off in
    let tok, _ = get_int buf (off + len) in
    Printf.sprintf "qd %d (%s) tok %d" qd (Bytes.sub_string buf off len) tok
  end
  else if shape = shape_qtoken then
    Printf.sprintf "qtoken %d" (fst (get_int buf off))
  else begin
    let mac, off = get_int buf off in
    let len, off = get_int buf off in
    let ring, _ = get_int buf off in
    Printf.sprintf "nic %x rx %dB (ring %d)" mac len ring
  end

let entries t =
  let len = t.held in
  let buf = Bytes.create (Int.max 1 len) in
  let first = Int.min len (t.capacity - t.head) in
  Bytes.blit t.data t.head buf 0 first;
  Bytes.blit t.data 0 buf first (len - first);
  let rec parse i off acc =
    if i = t.count then List.rev acc
    else begin
      let size = t.sizes.(wrap t.first i (Array.length t.sizes)) in
      let ring = size land ring_mask in
      let at = Bytes.get_int64_be buf off in
      let tag = Bytes.get_uint8 buf (off + 8) in
      let kind = kind_of_tag (tag mod shape_unit) in
      let body = off + body_off in
      let what =
        if tag < shape_unit then Bytes.sub_string buf body (ring - body_off)
        else render_typed (tag / shape_unit) buf body
      in
      parse (i + 1) (off + ring) ({ at; kind; what } :: acc)
    end
  in
  parse 0 0 []

let length t = t.count
let recorded t = t.total
let evicted t = t.dropped

let clear t =
  t.head <- 0;
  t.used <- 0;
  t.held <- 0;
  t.first <- 0;
  t.count <- 0;
  t.total <- 0;
  t.dropped <- 0

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%12Ld  %-10s %s@\n" e.at (kind_name e.kind) e.what)
    (entries t)
