let encode segments =
  let buf = Stdlib.Buffer.create 64 in
  Dk_util.Varint.write buf (List.length segments);
  List.iter (fun s -> Dk_util.Varint.write buf (String.length s)) segments;
  List.iter (Stdlib.Buffer.add_string buf) segments;
  Stdlib.Buffer.contents buf

let max_message = 1 lsl 24
let max_segments = 1 lsl 16

let fits sga =
  Dk_mem.Sga.length sga <= max_message
  && Dk_mem.Sga.segment_count sga <= max_segments

let encode_sga sga =
  encode (List.map Dk_mem.Buffer.to_string (Dk_mem.Sga.segments sga))

(* The undecoded stream bytes are [buf.[rd] .. buf.[wr - 1]]. Feeding
   appends at [wr]; decoding a message advances [rd]. [corrupt] is set,
   for good, by the first header that cannot describe a message. *)
type decoder = {
  mutable buf : bytes;
  mutable rd : int;
  mutable wr : int;
  mutable corrupt : bool;
}

let create () = { buf = Bytes.empty; rd = 0; wr = 0; corrupt = false }

let corrupt t = t.corrupt

let buffered t = t.wr - t.rd

(* Make room for [k] more bytes at [wr]. Slide the backlog to the front
   when that frees at least half the buffer; otherwise move it into one
   at least twice as large. Either way the bytes moved are paid for by
   the bytes fed since the last move, so feeding is linear overall. *)
let make_room t k =
  let live = buffered t in
  let cap = Bytes.length t.buf in
  if 2 * (live + k) <= cap then Bytes.blit t.buf t.rd t.buf 0 live
  else begin
    let grown = Bytes.create (Int.max (2 * cap) (live + k)) in
    Bytes.blit t.buf t.rd grown 0 live;
    t.buf <- grown
  end;
  t.rd <- 0;
  t.wr <- live
  [@@hot.alloc
    "amortised growth: the stream buffer doubles only when the backlog \
     outgrows it, and is reused after that"]

let feed t s =
  let k = String.length s in
  if k > 0 && not t.corrupt then begin
    if t.wr + k > Bytes.length t.buf then make_room t k;
    Bytes.blit_string s 0 t.buf t.wr k;
    t.wr <- t.wr + k
  end

(* The reader writes past [wr]. On a corrupt stream its bytes are
   read, so the source drains as under [feed], but [wr] stays put. *)
let fill t k read src =
  if t.wr + k > Bytes.length t.buf then make_room t k;
  match read src t.buf t.wr k with
  | Ok n as r ->
      if not t.corrupt then t.wr <- t.wr + n;
      r
  | Error _ as r -> r

(* A non-negative int needs at most 9 varint bytes, so a varint still
   unterminated with 9 bytes in hand never ends: the stream is corrupt,
   not short. [Varint.read] answered [None] for the varint at [off]. *)
let unterminated t off =
  if t.wr - off >= 9 then t.corrupt <- true;
  None

(* Decode [nsegs] segment lengths starting at [off]; toplevel so the
   per-message call allocates no closure environment. A negative or
   unterminated length, or lengths whose sum [total] passes
   [max_message], mark the stream corrupt: a lying length is caught as
   soon as its header is read, not after its body has been buffered. *)
let rec read_lengths t nsegs i off total acc =
  if i = nsegs then Some (List.rev acc, off)
  else
    match Dk_util.Varint.read t.buf off ~stop:t.wr with
    | None -> unterminated t off
    | Some (len, used) ->
        if len < 0 || len > max_message - total then begin
          t.corrupt <- true;
          None
        end
        else read_lengths t nsegs (i + 1) (off + used) (total + len) (len :: acc)
  [@@hot.alloc "the decoded segment-length list is the frame header"]

let rec sum_lens = function [] -> 0 | n :: rest -> n + sum_lens rest

let rec cut_segs b pos = function
  | [] -> []
  | len :: rest -> Bytes.sub_string b pos len :: cut_segs b (pos + len) rest
  [@@hot.alloc "decoding materializes each delivered segment"]

let cut_strings b body lens _total = cut_segs b body lens

let rec views store pos = function
  | [] -> []
  | len :: rest ->
      Dk_mem.Buffer.view store ~off:pos ~len :: views store (pos + len) rest
  [@@hot.alloc "the delivered sga's segment list, one view per segment"]

let cut_store b body lens total =
  let store = Bytes.sub b body total in
  Dk_mem.Sga.of_buffers (views store 0 lens)
  [@@hot.alloc
    "each delivered message gets one store of its own, so it outlives \
     later feeds, slides and growth of the backlog"]

(* Decode one message from the head of the backlog and copy it out
   with [cut b body lens total]: its segment lengths [lens], summing to
   [total], start at [b.[body]]. [next] and [next_sga] differ only in
   [cut], so they share one header parser and its corrupt rules. *)
let decode t cut =
  if t.corrupt then None
  else
    match Dk_util.Varint.read t.buf t.rd ~stop:t.wr with
    | None -> unterminated t t.rd
    | Some (nsegs, used0) -> (
        if nsegs < 0 || nsegs > max_segments then begin
          t.corrupt <- true;
          None
        end
        else
          match read_lengths t nsegs 0 (t.rd + used0) 0 [] with
          | None -> None
          | Some (lens, body) ->
              let total = sum_lens lens in
              if total > t.wr - body then None
              else begin
                let msg = cut t.buf body lens total in
                t.rd <- body + total;
                if t.rd = t.wr then begin
                  t.rd <- 0;
                  t.wr <- 0
                end;
                Some msg
              end)

let next t = decode t cut_strings
let next_sga t = decode t cut_store
