(* Unit and property tests for dk_util: ring buffer, checksum, crc32,
   varint, bounded queue. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

(* ---------------- Ring ---------------- *)

module Ring = Dk_util.Ring

let ring_basic () =
  let r = Ring.create 8 in
  check_int "capacity" 8 (Ring.capacity r);
  check_int "empty length" 0 (Ring.length r);
  check_bool "is_empty" true (Ring.is_empty r);
  check_int "write 5" 5 (Ring.write_string r "hello");
  check_int "length 5" 5 (Ring.length r);
  check_int "available 3" 3 (Ring.available r);
  check_str "read back" "hello" (Ring.read_all r);
  check_bool "empty again" true (Ring.is_empty r)

let ring_overflow () =
  let r = Ring.create 4 in
  check_int "partial write" 4 (Ring.write_string r "abcdef");
  check_bool "is_full" true (Ring.is_full r);
  check_int "no more" 0 (Ring.write_string r "x");
  check_str "kept prefix" "abcd" (Ring.read_all r)

let ring_wraparound () =
  let r = Ring.create 4 in
  ignore (Ring.write_string r "ab");
  check_str "first" "ab" (Ring.read_all r);
  (* head is now at 2; writing 4 bytes wraps *)
  check_int "wrap write" 4 (Ring.write_string r "wxyz");
  check_str "wrapped read" "wxyz" (Ring.read_all r)

let ring_peek_drop () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abcdef");
  let buf = Bytes.create 3 in
  check_int "peek 3" 3 (Ring.peek r buf 0 3);
  check_str "peeked" "abc" (Bytes.to_string buf);
  check_int "length unchanged" 6 (Ring.length r);
  check_int "drop 2" 2 (Ring.drop r 2);
  check_str "after drop" "cdef" (Ring.read_all r)

let ring_peek_at () =
  (* Stored bytes "cdefghij" sit across the wrap point of an 8-byte
     ring: every (skip, len) must see the matching slice, and a skip at
     or past the length copies nothing. *)
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abcdef");
  check_int "drop 2" 2 (Ring.drop r 2);
  check_int "wrap write" 4 (Ring.write_string r "ghij");
  let stored = "cdefghij" in
  for skip = 0 to 10 do
    for len = 0 to 9 do
      let buf = Bytes.make 9 '.' in
      let want = max 0 (min len (8 - skip)) in
      check_int
        (Printf.sprintf "copied (skip %d, len %d)" skip len)
        want
        (Ring.peek_at r ~skip buf 0 len);
      check_str
        (Printf.sprintf "bytes (skip %d, len %d)" skip len)
        (String.sub stored (min skip 8) want)
        (Bytes.sub_string buf 0 want)
    done
  done;
  check_int "length unchanged" 8 (Ring.length r);
  Alcotest.check_raises "negative skip" (Invalid_argument "Ring.peek_at")
    (fun () -> ignore (Ring.peek_at r ~skip:(-1) (Bytes.create 1) 0 1))

let ring_partial_read () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abc");
  let buf = Bytes.create 8 in
  check_int "short read" 3 (Ring.read r buf 0 8)

let ring_clear () =
  let r = Ring.create 8 in
  ignore (Ring.write_string r "abc");
  Ring.clear r;
  check_int "cleared" 0 (Ring.length r)

let ring_invalid () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create 0))

(* Property: a ring behaves like a FIFO byte queue. *)
let ring_fifo_model =
  QCheck.Test.make ~name:"ring matches FIFO model" ~count:300
    QCheck.(pair (int_bound 200) (small_list (pair (string_of_size Gen.(0 -- 20)) (int_bound 20))))
    (fun (cap_raw, script) ->
      let cap = max 1 cap_raw in
      let r = Ring.create cap in
      let model = Stdlib.Buffer.create 64 in
      let model_read = ref 0 in
      List.iter
        (fun (write, read_n) ->
          let wrote = Ring.write_string r write in
          (* model: only the accepted prefix enters *)
          Stdlib.Buffer.add_string model (String.sub write 0 wrote);
          let buf = Bytes.create read_n in
          let got = Ring.read r buf 0 read_n in
          let expected =
            String.sub (Stdlib.Buffer.contents model) !model_read got
          in
          model_read := !model_read + got;
          if not (String.equal expected (Bytes.sub_string buf 0 got)) then
            QCheck.Test.fail_reportf "read mismatch: %S vs %S" expected
              (Bytes.sub_string buf 0 got))
        script;
      let remaining =
        String.sub
          (Stdlib.Buffer.contents model)
          !model_read
          (Stdlib.Buffer.length model - !model_read)
      in
      String.equal remaining (Ring.read_all r))

(* ---------------- Checksum ---------------- *)

module Checksum = Dk_util.Checksum

let checksum_known () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum 0x220d *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071" 0x220d (Checksum.compute data 0 8)

let checksum_verify_roundtrip () =
  (* Even-length region: the appended checksum must land on a 16-bit
     boundary for the fold-to-zero property to hold. *)
  let data = Bytes.of_string "\x45\x00\x00\x1cHELLO world padding." in
  let c = Checksum.compute data 0 (Bytes.length data) in
  (* Append the checksum and verify over the whole thing *)
  let whole = Bytes.create (Bytes.length data + 2) in
  Bytes.blit data 0 whole 0 (Bytes.length data);
  Bytes.set whole (Bytes.length data) (Char.chr (c lsr 8));
  Bytes.set whole (Bytes.length data + 1) (Char.chr (c land 0xff));
  check_bool "verifies" true (Checksum.verify whole 0 (Bytes.length whole))

let checksum_odd_length () =
  let data = Bytes.of_string "abc" in
  let c = Checksum.compute data 0 3 in
  check_bool "in range" true (c >= 0 && c <= 0xffff)

let checksum_verify_prop =
  QCheck.Test.make ~name:"checksum verify detects single-bit flips" ~count:200
    QCheck.(string_of_size Gen.(2 -- 64))
    (fun s ->
      QCheck.assume (String.length s mod 2 = 0);
      let data = Bytes.of_string s in
      let c = Checksum.compute data 0 (Bytes.length data) in
      let whole = Bytes.create (Bytes.length data + 2) in
      Bytes.blit data 0 whole 0 (Bytes.length data);
      Bytes.set whole (Bytes.length data) (Char.chr (c lsr 8));
      Bytes.set whole (Bytes.length data + 1) (Char.chr (c land 0xff));
      Checksum.verify whole 0 (Bytes.length whole))

(* The byte-at-a-time one's-complement sum, kept here as the reference
   the word-load implementation must match bit for bit. *)
let reference_sum ~init buf off len =
  let sum = ref init in
  for i = 0 to (len / 2) - 1 do
    let j = off + (2 * i) in
    sum :=
      !sum
      + (Char.code (Bytes.get buf j) lsl 8)
      + Char.code (Bytes.get buf (j + 1))
  done;
  if len land 1 = 1 then
    sum := !sum + (Char.code (Bytes.get buf (off + len - 1)) lsl 8);
  !sum

(* Buffers past one 32 KiB lane chunk (4,096 64-bit loads) and long
   0xff runs, the input that drives both lanes hardest. *)
let checksum_input =
  let open QCheck.Gen in
  let buffer =
    frequency
      [
        (3, string_size (0 -- 200));
        (2, string_size (32_768 -- 70_000));
        (1, map (fun n -> String.make n '\xff') (0 -- 140_000));
        ( 1,
          map2
            (fun s n -> s ^ String.make n '\xff' ^ s)
            (string_size (0 -- 100)) (32_000 -- 70_000) );
      ]
  in
  QCheck.make
    ~print:(fun (s, off, len, init) ->
      Printf.sprintf "%d B (%d of them 0xff), off %d, len %d, init %d"
        (String.length s)
        (String.fold_left (fun n c -> if c = '\xff' then n + 1 else n) 0 s)
        off len init)
    (quad buffer
       (oneof [ 0 -- 16; 0 -- 140_000 ])
       (oneof [ 0 -- 200; 0 -- 140_000 ])
       (0 -- 0xffff))

let checksum_matches_reference =
  QCheck.Test.make ~name:"checksum matches byte-wise reference" ~count:500
    checksum_input
    (fun (s, off_raw, len_raw, init) ->
      let buf = Bytes.of_string s in
      let off = if s = "" then 0 else off_raw mod (String.length s + 1) in
      let len = len_raw mod (String.length s - off + 1) in
      Checksum.ones_complement_sum ~init buf off len
      = reference_sum ~init buf off len
      && Checksum.compute buf off len
         = Checksum.finish (reference_sum ~init:0 buf off len))

let pseudo_header_matches_bytes =
  QCheck.Test.make ~name:"pseudo-header sum matches its 12 bytes" ~count:200
    QCheck.(quad int int (int_bound 0xff) int)
    (fun (src, dst, proto, len) ->
      let b = Bytes.make 12 '\000' in
      Bytes.set_int32_be b 0 (Int32.of_int src);
      Bytes.set_int32_be b 4 (Int32.of_int dst);
      Bytes.set_uint8 b 9 proto;
      Bytes.set_uint16_be b 10 (len land 0xffff);
      Checksum.pseudo_header_sum ~src ~dst ~proto ~len
      = reference_sum ~init:0 b 0 12)

let checksum_long_ff_runs () =
  (* Lane-chunk boundaries and a buffer of eleven chunks, all 0xff. *)
  List.iter
    (fun n ->
      let buf = Bytes.make n '\xff' in
      check_int (Printf.sprintf "%d B" n)
        (reference_sum ~init:0xffff buf 0 n)
        (Checksum.ones_complement_sum ~init:0xffff buf 0 n))
    [ 0; 1; 7; 8; 9; 32_767; 32_768; 32_769; 65_539; 365_000 ]

let checksum_allocates_nothing () =
  let buf = Bytes.init 1500 (fun i -> Char.chr (i land 0xff)) in
  ignore (Checksum.compute buf 0 1500);
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Checksum.compute buf 1 1499));
    ignore
      (Sys.opaque_identity
         (Checksum.transport ~src:0x0a000001 ~dst:0x0a000002 ~proto:6 buf 34
            1466))
  done;
  check_int "minor words" 0 (int_of_float (Gc.minor_words () -. before))

(* ---------------- Crc32 ---------------- *)

let crc32_known () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926 *)
  check (Alcotest.int32) "123456789" 0xCBF43926l
    (Dk_util.Crc32.digest_string "123456789");
  check (Alcotest.int32) "empty" 0l (Dk_util.Crc32.digest_string "")

let crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Dk_util.Crc32.digest_string s in
  let b = Bytes.of_string s in
  let half = String.length s / 2 in
  let part1 = Dk_util.Crc32.digest b 0 half in
  let part2 = Dk_util.Crc32.digest ~init:part1 b half (String.length s - half) in
  check (Alcotest.int32) "incremental equals whole" whole part2

(* ---------------- Varint ---------------- *)

module Varint = Dk_util.Varint

let varint_known () =
  let enc v =
    let b = Stdlib.Buffer.create 8 in
    Varint.write b v;
    Stdlib.Buffer.contents b
  in
  check_str "0" "\x00" (enc 0);
  check_str "127" "\x7f" (enc 127);
  check_str "128" "\x80\x01" (enc 128);
  check_str "300" "\xac\x02" (enc 300)

let varint_truncated () =
  check_bool "incomplete returns None" true
    (Varint.read (Bytes.of_string "\x80") 0 ~stop:1 = None);
  check_bool "empty returns None" true
    (Varint.read (Bytes.of_string "") 0 ~stop:0 = None);
  check_bool "stops at stop" true
    (Varint.read (Bytes.of_string "\x80\x01") 0 ~stop:1 = None)

let varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let b = Stdlib.Buffer.create 10 in
      Varint.write b v;
      let s = Stdlib.Buffer.contents b in
      String.length s = Varint.encoded_size v
      &&
      match Varint.read (Bytes.of_string s) 0 ~stop:(String.length s) with
      | Some (v', used) -> v = v' && used = String.length s
      | None -> false)

(* ---------------- Bqueue ---------------- *)

module Bqueue = Dk_util.Bqueue

let bqueue_basic () =
  let q = Bqueue.create 2 in
  check_bool "push 1" true (Bqueue.push q 1);
  check_bool "push 2" true (Bqueue.push q 2);
  check_bool "push 3 fails" false (Bqueue.push q 3);
  check_bool "peek" true (Bqueue.peek q = Some 1);
  check_bool "pop 1" true (Bqueue.pop q = Some 1);
  check_bool "pop 2" true (Bqueue.pop q = Some 2);
  check_bool "pop empty" true (Bqueue.pop q = None)

(* The ring wraps in FIFO order against a [Queue] model, and a popped
   element does not stay reachable from its slot: after pushing and
   popping 64 distinct blocks through an 8-slot ring, at most the one
   the ring keeps as its filler survives a major collection. *)
let bqueue_wraps_and_forgets () =
  let q = Bqueue.create 8 and model = Queue.create () in
  let weak = Weak.create 64 in
  for i = 0 to 63 do
    let v = Bytes.make 16 (Char.chr (65 + (i mod 26))) in
    Weak.set weak i (Some v);
    if Bqueue.is_full q then
      check_bool "pop" true (Bqueue.pop q = Queue.take_opt model);
    check_bool "push" true (Bqueue.push q v);
    Queue.add v model;
    check_int "length" (Queue.length model) (Bqueue.length q)
  done;
  while Bqueue.length q > 0 do
    check_bool "drain" true (Bqueue.pop q = Queue.take_opt model)
  done;
  check_bool "empty" true (Bqueue.peek q = None);
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to 63 do
    if Weak.check weak i then incr alive
  done;
  check_bool (Printf.sprintf "%d popped elements reachable, at most 1" !alive)
    true (!alive <= 1);
  ignore (Sys.opaque_identity q)

(* ---------------- Pool ---------------- *)

module Pool = Dk_util.Pool

type desc = { id : int; mutable v : int }

(* Ids stay distinct while taken, a release hands back the descriptor
   and makes it the one taken next, and growth keeps every descriptor
   and its id. *)
let pool_ids () =
  let made = ref 0 in
  let p =
    Pool.create (fun () id ->
        incr made;
        { id; v = 0 })
  in
  let taken =
    List.init 10 (fun i ->
        let d = Pool.take p () in
        d.v <- i;
        d)
  in
  let ids = List.sort_uniq compare (List.map (fun d -> d.id) taken) in
  check_int "distinct ids" 10 (List.length ids);
  check_int "made by doubling" 16 !made;
  let third = List.nth taken 3 in
  check_bool "release returns it" true (Pool.release p third.id == third);
  check_bool "released one is reused" true (Pool.take p () == third);
  check_int "kept its last value" 3 third.v;
  List.iter
    (fun d -> check_bool "release returns it" true (Pool.release p d.id == d))
    taken;
  for _ = 1 to 16 do
    ignore (Pool.take p ())
  done;
  check_int "no growth while 16 fit" 16 !made

(* ---- Itbl ---- *)

(* Random add/replace/remove/find against the stdlib's polymorphic
   table: the same bindings, shadowing included, and a sorted fold that
   visits the visible bindings in ascending key order. Keys are drawn
   from a narrow range plus edge values, so operations collide and
   shadow; [min_int] and [max_int] exercise the hash's wrap-around. *)
type itbl_op = Add of int * int | Replace of int * int | Remove of int | Find of int

let itbl_matches_hashtbl =
  let key =
    QCheck.Gen.(
      oneof
        [ int_range (-20) 40; oneofl [ min_int; max_int; 0x7fff_ffff; 1 lsl 32 ] ])
  in
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> Add (k, v)) key small_nat;
          map2 (fun k v -> Replace (k, v)) key small_nat;
          map (fun k -> Remove k) key;
          map (fun k -> Find k) key;
        ])
  in
  let show = function
    | Add (k, v) -> Printf.sprintf "add %d %d" k v
    | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
    | Remove k -> Printf.sprintf "remove %d" k
    | Find k -> Printf.sprintf "find %d" k
  in
  QCheck.Test.make ~name:"itbl matches Hashtbl" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show ops))
        Gen.(list_size (0 -- 200) op))
    (fun ops ->
      let t = Dk_util.Itbl.create 4 and m = Hashtbl.create 4 in
      let same_find k =
        Dk_util.Itbl.find_opt t k = Hashtbl.find_opt m k
        && Dk_util.Itbl.find_all t k = Hashtbl.find_all m k
        && Dk_util.Itbl.mem t k = Hashtbl.mem m k
      in
      List.for_all
        (fun o ->
          (match o with
          | Add (k, v) ->
              Dk_util.Itbl.add t k v;
              Hashtbl.add m k v
          | Replace (k, v) ->
              Dk_util.Itbl.replace t k v;
              Hashtbl.replace m k v
          | Remove k ->
              Dk_util.Itbl.remove t k;
              Hashtbl.remove m k
          | Find _ -> ());
          let k = match o with Add (k, _) | Replace (k, _) | Remove k | Find k -> k in
          same_find k && Dk_util.Itbl.length t = Hashtbl.length m)
        ops
      &&
      let visible =
        Hashtbl.fold (fun k _ acc -> k :: acc) m []
        |> List.sort_uniq Int.compare
        |> List.map (fun k -> (k, Hashtbl.find_all m k))
      in
      let folded =
        Dk_util.Itbl.fold_sorted (fun k v acc -> (k, v) :: acc) t [] |> List.rev
      in
      (* ascending keys; a shadowed key's bindings all appear, together *)
      List.map fst folded
      = List.concat_map (fun (k, vs) -> List.map (fun _ -> k) vs) visible
      && List.for_all
           (fun (k, vs) ->
             List.sort Int.compare
               (List.filter_map
                  (fun (k', v) -> if k' = k then Some v else None)
                  folded)
             = List.sort Int.compare vs)
           visible)

(* Keys that differ only in bits 40-47, as MACs that differ only in
   their top bytes, must spread: [Hashtbl]'s bucket mask reads product
   bits 32 and up, which key bits above them never reach unless the
   hash folds them down. 256 such keys fill 128 buckets. *)
let itbl_spreads_high_bits =
  QCheck.Test.make ~name:"itbl spreads keys that differ in bits 40-47"
    ~count:100
    QCheck.(int_bound ((1 lsl 40) - 1))
    (fun base ->
      let t = Dk_util.Itbl.create 8 in
      for i = 0 to 255 do
        Dk_util.Itbl.replace t (base lor (i lsl 40)) i
      done;
      let s = Dk_util.Itbl.stats t in
      s.Hashtbl.num_bindings = 256 && s.Hashtbl.max_bucket_length <= 8)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dk_util"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick ring_basic;
          Alcotest.test_case "overflow" `Quick ring_overflow;
          Alcotest.test_case "wraparound" `Quick ring_wraparound;
          Alcotest.test_case "peek/drop" `Quick ring_peek_drop;
          Alcotest.test_case "peek_at" `Quick ring_peek_at;
          Alcotest.test_case "partial read" `Quick ring_partial_read;
          Alcotest.test_case "clear" `Quick ring_clear;
          Alcotest.test_case "invalid" `Quick ring_invalid;
        ] );
      qsuite "ring-props" [ ring_fifo_model ];
      ( "checksum",
        [
          Alcotest.test_case "known vector" `Quick checksum_known;
          Alcotest.test_case "verify roundtrip" `Quick checksum_verify_roundtrip;
          Alcotest.test_case "odd length" `Quick checksum_odd_length;
          Alcotest.test_case "long 0xff runs" `Quick checksum_long_ff_runs;
          Alcotest.test_case "allocates nothing" `Quick
            checksum_allocates_nothing;
        ] );
      qsuite "checksum-props"
        [
          checksum_verify_prop;
          checksum_matches_reference;
          pseudo_header_matches_bytes;
        ];
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick crc32_known;
          Alcotest.test_case "incremental" `Quick crc32_incremental;
        ] );
      ( "varint",
        [
          Alcotest.test_case "known encodings" `Quick varint_known;
          Alcotest.test_case "truncated" `Quick varint_truncated;
        ] );
      qsuite "varint-props" [ varint_roundtrip ];
      ( "bqueue",
        [
          Alcotest.test_case "basic" `Quick bqueue_basic;
          Alcotest.test_case "wraps and forgets" `Quick
            bqueue_wraps_and_forgets;
        ] );
      ("pool", [ Alcotest.test_case "ids" `Quick pool_ids ]);
      qsuite "itbl-props" [ itbl_matches_hashtbl; itbl_spreads_high_bits ];
    ]
