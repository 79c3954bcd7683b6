(* Tests for dk_obs: the metrics registry (counters, gauges,
   histograms, snapshots) and the flight recorder (record/entries,
   eviction, enable/disable, Dk_check dump wiring, the allocation-free
   label appenders).

   The registry under test is always a private [Metrics.create ()] (or
   counter deltas on the process-global default) so the suite is
   insensitive to instrumentation that ran before it. *)

module M = Dk_obs.Metrics
module F = Dk_obs.Flight
module Export = Dk_obs.Export
module Dk_check = Dk_mem.Dk_check

let check = Alcotest.check
let check_int = check Alcotest.int
let check_i64 = check Alcotest.int64

(* ---- counters ---- *)

let counter_get_or_create () =
  let reg = M.create () in
  let a = M.counter ~reg "x.hits" in
  let b = M.counter ~reg "x.hits" in
  M.incr a;
  M.incr b;
  check_int "same instrument" 2 (M.value a);
  check_int "other name is fresh" 0 (M.value (M.counter ~reg "x.misses"))

let counter_incr_add () =
  let reg = M.create () in
  let c = M.counter ~reg "c" in
  M.incr c;
  M.add c 41;
  check_int "1 + 41" 42 (M.value c)

let default_registry_shared () =
  (* Instruments on the default registry are process-global: read a
     delta, never an absolute. *)
  let c = M.counter "test_obs.private" in
  let before = M.value c in
  M.incr c;
  check_int "delta visible" (before + 1) (M.value (M.counter "test_obs.private"))

(* ---- gauges ---- *)

let gauge_hwm () =
  let reg = M.create () in
  let g = M.gauge ~reg "depth" in
  M.gauge_add g 3;
  M.gauge_add g 4;
  M.gauge_add g (-5);
  check_int "value" 2 (M.gauge_value g);
  check_int "high-water" 7 (M.gauge_hwm g);
  M.set g 1;
  check_int "set" 1 (M.gauge_value g);
  check_int "hwm survives set" 7 (M.gauge_hwm g)

(* ---- histograms ---- *)

let hist_observe () =
  let reg = M.create () in
  let h = M.hist ~reg "lat" in
  List.iter (fun v -> M.observe h (Int64.of_int v)) [ 10; 20; 30 ];
  check_int "count" 3 (Dk_sim.Histogram.count (M.hist_data h));
  check_i64 "max" 30L (Dk_sim.Histogram.max (M.hist_data h))

(* ---- reset ---- *)

let reset_zeroes_keeps_instruments () =
  let reg = M.create () in
  let c = M.counter ~reg "c" in
  let g = M.gauge ~reg "g" in
  let h = M.hist ~reg "h" in
  M.add c 5;
  M.gauge_add g 9;
  M.observe h 100L;
  M.reset reg;
  check_int "counter zeroed" 0 (M.value c);
  check_int "gauge zeroed" 0 (M.gauge_value g);
  check_int "hwm zeroed" 0 (M.gauge_hwm g);
  check_int "hist zeroed" 0 (Dk_sim.Histogram.count (M.hist_data h));
  (* the same record is still registered: bumps after reset are seen
     through a fresh lookup *)
  M.incr c;
  check_int "still live" 1 (M.value (M.counter ~reg "c"))

(* ---- instances ---- *)

let instance_bumps_land_on_class () =
  let reg = M.create () in
  let c = M.counter ~reg "x.frames" in
  let a = M.instance c and b = M.instance c in
  M.incr a;
  M.add b 4;
  M.incr c;
  check_int "instance a" 1 (M.value a);
  check_int "instance b" 4 (M.value b);
  check_int "class = both instances + its own bump" 6 (M.value c);
  let h = M.hist ~reg "x.lat" in
  let hi = M.hist_instance h in
  M.observe hi 10L;
  M.observe h 20L;
  check_int "hist instance" 1 (Dk_sim.Histogram.count (M.hist_data hi));
  check_int "hist class" 2 (Dk_sim.Histogram.count (M.hist_data h));
  let not_a_class f = try ignore (f ()); false with Invalid_argument _ -> true in
  check Alcotest.bool "no instance of an instance" true
    (not_a_class (fun () -> M.instance a))

let instance_gauge_hwm () =
  let reg = M.create () in
  let g = M.gauge ~reg "x.depth" in
  let a = M.gauge_instance g and b = M.gauge_instance g in
  M.gauge_add a 3;
  M.gauge_add a (-3);
  M.gauge_add b 2;
  M.set a 1;
  check_int "a level" 1 (M.gauge_value a);
  check_int "a high-water is its own" 3 (M.gauge_hwm a);
  check_int "b high-water is its own" 2 (M.gauge_hwm b);
  check_int "class level is the sum" 3 (M.gauge_value g);
  check_int "class high-water is that of the sum" 3 (M.gauge_hwm g);
  M.gauge_add b 1;
  check_int "class high-water moves with the sum" 4 (M.gauge_hwm g)

let reset_leaves_instances () =
  let reg = M.create () in
  let c = M.counter ~reg "x.c" and g = M.gauge ~reg "x.g" in
  let ci = M.instance c and gi = M.gauge_instance g in
  M.add ci 5;
  M.gauge_add gi 7;
  M.reset reg;
  check_int "class counter zeroed" 0 (M.value c);
  check_int "class gauge zeroed" 0 (M.gauge_hwm g);
  check_int "instance counter kept" 5 (M.value ci);
  check_int "instance gauge kept" 7 (M.gauge_value gi);
  M.incr ci;
  check_int "instance still feeds its class" 1 (M.value c)

let snapshot_lists_classes_only () =
  let reg = M.create () in
  let c = M.counter ~reg "x.c" in
  M.incr (M.instance c);
  M.gauge_add (M.gauge_instance (M.gauge ~reg "x.g")) 2;
  M.observe (M.hist_instance (M.hist ~reg "x.h")) 5L;
  let s = M.snapshot reg in
  check Alcotest.(list (pair string int)) "counters" [ ("x.c", 1) ] s.M.counters;
  check_int "one gauge" 1 (List.length s.M.gauges);
  check_int "one hist" 1 (List.length s.M.hists)

let instance_bumps_allocate_nothing () =
  let reg = M.create () in
  let c = M.instance (M.counter ~reg "x.c") in
  let g = M.gauge_instance (M.gauge ~reg "x.g") in
  let bump () =
    M.incr c;
    M.add c 2;
    M.gauge_add g 1;
    M.set g 0
  in
  bump ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    bump ()
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words allocated" 0. words

(* ---- snapshot ---- *)

let snapshot_sorted_and_complete () =
  let reg = M.create () in
  M.add (M.counter ~reg "b.second") 2;
  M.add (M.counter ~reg "a.first") 1;
  M.gauge_add (M.gauge ~reg "g") 7;
  M.observe (M.hist ~reg "h") 50L;
  let s = M.snapshot reg in
  (match s.M.counters with
  | [ (n1, v1); (n2, v2) ] ->
      check Alcotest.string "sorted first" "a.first" n1;
      check_int "v1" 1 v1;
      check Alcotest.string "sorted second" "b.second" n2;
      check_int "v2" 2 v2
  | l -> Alcotest.failf "expected 2 counters, got %d" (List.length l));
  (match s.M.gauges with
  | [ (n, v, hwm) ] ->
      check Alcotest.string "gauge name" "g" n;
      check_int "gauge value" 7 v;
      check_int "gauge hwm" 7 hwm
  | l -> Alcotest.failf "expected 1 gauge, got %d" (List.length l));
  match s.M.hists with
  | [ (n, hs) ] ->
      check Alcotest.string "hist name" "h" n;
      check_int "hist count" 1 hs.M.hs_count;
      check_i64 "hist p50" 50L hs.M.hs_p50
  | l -> Alcotest.failf "expected 1 hist, got %d" (List.length l)

let snapshot_deterministic () =
  let reg = M.create () in
  List.iter (fun n -> M.incr (M.counter ~reg n)) [ "z"; "m"; "a"; "m" ];
  let s1 = M.snapshot reg and s2 = M.snapshot reg in
  check Alcotest.bool "identical snapshots" true (s1 = s2);
  check_int "three names" 3 (List.length s1.M.counters)

(* ---- multi-shard aggregation ---- *)

let shard_agg_folds () =
  (* shard<i>.<layer>.<component>.<event> names fold into one
     shards.agg.<rest> entry; everything else passes through. *)
  let reg = M.create () in
  M.add (M.counter ~reg "shard0.app.client.ops") 3;
  M.add (M.counter ~reg "shard1.app.client.ops") 4;
  M.add (M.counter ~reg "net.tcp.segs_sent") 9;
  M.gauge_add (M.gauge ~reg "shard0.core.mailbox.inflight") 2;
  M.gauge_add (M.gauge ~reg "shard1.core.mailbox.inflight") 5;
  M.observe (M.hist ~reg "shard0.app.client.rtt") 10L;
  M.observe (M.hist ~reg "shard1.app.client.rtt") 1000L;
  let s = M.snapshot_with_shard_agg reg in
  check_int "agg counter sums shards"
    7
    (List.assoc "shards.agg.app.client.ops" s.M.counters);
  check_int "per-shard counters survive" 3
    (List.assoc "shard0.app.client.ops" s.M.counters);
  check_int "non-shard counter untouched" 9
    (List.assoc "net.tcp.segs_sent" s.M.counters);
  (match
     List.find_opt
       (fun (n, _, _) -> n = "shards.agg.core.mailbox.inflight")
       s.M.gauges
   with
  | Some (_, v, hwm) ->
      check_int "agg gauge sums levels" 7 v;
      check_int "agg gauge hwm = worst shard" 5 hwm
  | None -> Alcotest.fail "aggregated gauge missing");
  (match List.assoc_opt "shards.agg.app.client.rtt" s.M.hists with
  | Some hs ->
      check_int "agg hist merges counts" 2 hs.M.hs_count;
      check Alcotest.bool "agg hist keeps the worst sample" true
        (hs.M.hs_max >= 1000L)
  | None -> Alcotest.fail "aggregated hist missing");
  let sorted l = List.sort compare l = l in
  check Alcotest.bool "counters stay sorted" true
    (sorted (List.map fst s.M.counters));
  check Alcotest.bool "hists stay sorted" true
    (sorted (List.map fst s.M.hists))

let shard_runtime_names () =
  (* The multi-shard runtime registers every per-shard instrument under
     shard<i>.<layer>.<component>.<event> on the default registry; the
     aggregated view then carries one shards.agg.* entry per family. *)
  let module Runtime = Dk_shard_rt.Runtime in
  M.reset M.default;
  let t = Runtime.create ~n:2 ~seed:7L () in
  let _stats = Runtime.run_echo t ~flows:2 ~size:64 ~rounds:3 in
  let s = M.snapshot_with_shard_agg M.default in
  let cnames = List.map fst s.M.counters in
  let hnames = List.map fst s.M.hists in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n cnames))
    [
      "shard0.app.client.ops";
      "shard1.app.client.ops";
      "shard0.device.rss.flows";
      "shard0.core.mailbox.sent";
      "shard1.core.mailbox.delivered";
      "shards.agg.app.client.ops";
      "shards.agg.core.mailbox.sent";
    ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n hnames))
    [ "shard0.app.client.rtt"; "shard1.app.client.rtt"; "shards.agg.app.client.rtt" ];
  M.reset M.default

let shard_agg_noop_without_shards () =
  let reg = M.create () in
  M.add (M.counter ~reg "net.tcp.segs_sent") 1;
  M.add (M.counter ~reg "shardless.name") 2;
  M.add (M.counter ~reg "shard.nodigits") 3;
  check Alcotest.bool "no shard names => plain snapshot" true
    (M.snapshot_with_shard_agg reg = M.snapshot reg)

(* ---- exporters ---- *)

let export_table_mentions_all () =
  let reg = M.create () in
  M.add (M.counter ~reg "cnt") 3;
  M.gauge_add (M.gauge ~reg "gge") 4;
  M.observe (M.hist ~reg "hst") 5L;
  let out = Format.asprintf "%a" Export.pp_table (M.snapshot reg) in
  List.iter
    (fun needle ->
      let found =
        let n = String.length out and pl = String.length needle in
        let rec scan i =
          i + pl <= n && (String.sub out i pl = needle || scan (i + 1))
        in
        scan 0
      in
      check Alcotest.bool (needle ^ " in table") true found)
    [ "cnt"; "gge"; "hst"; "counters:"; "gauges"; "histograms" ]

let export_json_escapes () =
  check Alcotest.string "quotes and newline"
    {|"a\"b\\c\nd"|}
    (Export.json_string "a\"b\\c\nd")

(* ---- flight recorder ---- *)

let flight_record_entries () =
  let f = F.create ~capacity:4096 () in
  F.record f ~now:10L F.Push "first";
  F.record f ~now:20L F.Drop "second";
  if F.start f ~now:30L F.Mark then begin
    F.add_string f "n=";
    F.add_int f 3;
    F.commit f
  end;
  check_int "length" 3 (F.length f);
  check_int "recorded" 3 (F.recorded f);
  check_int "evicted" 0 (F.evicted f);
  match F.entries f with
  | [ e1; e2; e3 ] ->
      check_i64 "ts oldest" 10L e1.F.at;
      check Alcotest.string "kind" "push" (F.kind_name e1.F.kind);
      check Alcotest.string "what" "first" e1.F.what;
      check Alcotest.string "drop" "second" e2.F.what;
      check Alcotest.string "formatted" "n=3" e3.F.what
  | l -> Alcotest.failf "expected 3 entries, got %d" (List.length l)

let flight_eviction () =
  (* A small ring holds only a few entries; old ones must be evicted,
     order preserved, counts accounted. *)
  let f = F.create ~capacity:128 () in
  for i = 1 to 100 do
    F.record f ~now:(Int64.of_int i) F.Enqueue (Printf.sprintf "ev%d" i)
  done;
  check_int "recorded all" 100 (F.recorded f);
  check Alcotest.bool "evicted some" true (F.evicted f > 0);
  check_int "length + evicted = recorded" 100 (F.length f + F.evicted f);
  let es = F.entries f in
  check Alcotest.bool "non-empty" true (es <> []);
  (* strictly increasing timestamps, ending at the newest *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> Int64.compare a.F.at b.F.at < 0 && increasing rest
    | _ -> true
  in
  check Alcotest.bool "ordered" true (increasing es);
  check_i64 "newest survives" 100L (List.nth es (List.length es - 1)).F.at

let flight_disable_and_clear () =
  let f = F.create ~capacity:4096 () in
  F.record f ~now:1L F.Push "kept";
  F.set_enabled f false;
  F.record f ~now:2L F.Push "ignored";
  check Alcotest.bool "disabled start" false (F.start f ~now:3L F.Push);
  check_int "disabled records nothing" 1 (F.length f);
  F.set_enabled f true;
  F.record f ~now:4L F.Push "kept2";
  check_int "re-enabled" 2 (F.length f);
  F.clear f;
  check_int "cleared" 0 (F.length f);
  check_int "recorded reset" 0 (F.recorded f)

let flight_label_truncated () =
  (* A label longer than the whole ring still records (truncated)
     rather than raising or looping forever. *)
  let f = F.create ~capacity:128 () in
  F.record f ~now:1L F.Mark (String.make 1000 'x');
  check_int "one entry" 1 (F.length f);
  match F.entries f with
  | [ e ] ->
      check Alcotest.bool "truncated" true (String.length e.F.what < 1000);
      check Alcotest.bool "prefix kept" true
        (String.length e.F.what > 0 && e.F.what.[0] = 'x')
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let flight_long_entry () =
  (* A ring wider than 64 KiB takes a label longer than a 2-byte length
     could state; it must read back as one whole entry. *)
  let f = F.create ~capacity:200_000 () in
  let label = String.init 70_000 (fun i -> Char.chr (97 + (i mod 26))) in
  F.record f ~now:7L F.Mark label;
  check_int "one entry" 1 (F.length f);
  match F.entries f with
  | [ e ] ->
      check_i64 "timestamp" 7L e.F.at;
      check Alcotest.bool "label whole" true (String.equal e.F.what label)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let flight_dump_on_violation () =
  (* The documented wiring: a Dk_check sink that dumps the flight ring
     when a sanitizer violation reports. *)
  let f = F.create ~capacity:4096 () in
  F.record f ~now:7L F.Drop "the smoking gun";
  let dumped = Buffer.create 256 in
  Dk_check.set_sink (fun _ _ ->
      Buffer.add_string dumped (Format.asprintf "%a" F.pp f));
  let (), reports =
    Dk_check.capture (fun () ->
        Dk_check.report Dk_check.Use_after_free "synthetic")
  in
  Dk_check.clear_sink ();
  check_int "one report" 1 (List.length reports);
  let out = Buffer.contents dumped in
  let contains needle =
    let n = String.length out and pl = String.length needle in
    let rec scan i = i + pl <= n && (String.sub out i pl = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "dump has the event" true (contains "the smoking gun");
  check Alcotest.bool "dump has the kind" true (contains "drop")

(* The appenders must render exactly what Printf renders for the
   conversion each stands in for: labels are the recorder's output. *)
let edge_int = QCheck.(oneof [ int; oneofl [ 0; -1; 9; -10; min_int; max_int ] ])

let edge_int64 =
  QCheck.(
    oneof
      [
        int64;
        oneofl
          [
            0L; -1L; 999_999_999L; 1_000_000_000L; -1_000_000_001L;
            Int64.min_int; Int64.max_int;
          ];
      ])

let flight_appenders_match_printf =
  QCheck.Test.make ~name:"appenders render as Printf" ~count:1000
    QCheck.(quad edge_int edge_int edge_int64 small_string)
    (fun (d, x, ld, s) ->
      let f = F.create ~capacity:4096 () in
      if F.start f ~now:0L F.Mark then begin
        F.add_int f d;
        F.add_string f "|";
        F.add_hex f x;
        F.add_string f "|";
        F.add_int64 f ld;
        F.add_string f "|";
        F.add_string f s;
        F.commit f
      end;
      match F.entries f with
      | [ e ] -> e.F.what = Printf.sprintf "%d|%x|%Ld|%s" d x ld s
      | _ -> false)

(* The recorder against a list model of held entries and their
   rendered sizes: 11 header bytes plus the label, cut so the entry fits
   the ring; a commit evicts the oldest until the new entry fits.
   Random capacities and label lengths reach near-capacity and
   truncated labels; some labels are built in two appends. *)
let flight_kinds =
  [| F.Enqueue; F.Dequeue; F.Push; F.Pop; F.Completion; F.Drop;
     F.Retransmit; F.Wakeup; F.Mark |]

type flight_model = {
  capacity : int;
  mutable held : (F.entry * int) list;
  mutable used : int;
  mutable m_recorded : int;
  mutable m_evicted : int;
}

let flight_model capacity =
  { capacity; held = []; used = 0; m_recorded = 0; m_evicted = 0 }

(* Record [label] in the model and check the recorder against it. *)
let model_records m f ~at kind label =
  let what =
    String.sub label 0 (Int.min (String.length label) (m.capacity - 11))
  in
  let size = 11 + String.length what in
  let rec make_room () =
    match m.held with
    | (_, s) :: rest when m.capacity - m.used < size ->
        m.held <- rest;
        m.used <- m.used - s;
        m.m_evicted <- m.m_evicted + 1;
        make_room ()
    | _ -> ()
  in
  make_room ();
  m.held <- m.held @ [ ({ F.at; kind; what }, size) ];
  m.used <- m.used + size;
  m.m_recorded <- m.m_recorded + 1;
  F.recorded f = m.m_recorded
  && F.evicted f = m.m_evicted
  && F.length f = List.length m.held
  && F.entries f = List.map fst m.held

let flight_matches_model =
  QCheck.Test.make ~name:"commits match a list model" ~count:300
    QCheck.(pair (int_range 12 400) (small_list (pair (int_bound 450) bool)))
    (fun (capacity, script) ->
      let f = F.create ~capacity () in
      let m = flight_model capacity in
      List.for_all
        (fun (i, (len, split)) ->
          let at = Int64.of_int ((i * 7919) - 3000) in
          let kind = flight_kinds.(i mod Array.length flight_kinds) in
          let label = String.init len (fun j -> Char.chr (97 + ((i + j) mod 26))) in
          if split then begin
            if F.start f ~now:at kind then begin
              F.add_string f (String.sub label 0 (len / 2));
              F.add_string f (String.sub label (len / 2) (len - (len / 2)));
              F.commit f
            end
          end
          else F.record f ~now:at kind label;
          model_records m f ~at kind label)
        (List.mapi (fun i x -> (i, x)) script))

(* The typed calls store numbers and names in binary and render on
   read: mixed with built entries, every label must be Printf's and
   every count the model's, also when a typed label does not fit the
   ring whole and is cut. *)
type flight_step =
  | Built of int
  | Qd_op of bool * int * string * int
  | Qtoken of int
  | Nic_rx of int * int * int

let flight_step_gen =
  let open QCheck.Gen in
  let edge = oneof [ QCheck.gen edge_int; small_signed_int ] in
  let name =
    oneof
      [
        oneofl [ "tcp"; "udp"; "merge(tcp,udp)"; ""; "file" ];
        string_size (0 -- 300);
      ]
  in
  frequency
    [
      (1, map (fun n -> Built n) (int_bound 450));
      (3, map (fun (push, qd, name, tok) -> Qd_op (push, qd, name, tok))
            (quad bool edge name edge));
      (2, map (fun tok -> Qtoken tok) edge);
      (2, map3 (fun mac len ring -> Nic_rx (mac, len, ring)) edge edge edge);
    ]

let show_flight_step = function
  | Built n -> Printf.sprintf "built %d" n
  | Qd_op (push, qd, name, tok) ->
      Printf.sprintf "qd_op %b %d %S %d" push qd name tok
  | Qtoken tok -> Printf.sprintf "qtoken %d" tok
  | Nic_rx (mac, len, ring) -> Printf.sprintf "nic_rx %d %d %d" mac len ring

let flight_typed_match_model =
  QCheck.Test.make ~name:"typed and built entries match the list model"
    ~count:300
    QCheck.(
      pair (int_range 12 400)
        (make
           ~print:(fun l -> String.concat "; " (List.map show_flight_step l))
           Gen.(list_size (0 -- 60) flight_step_gen)))
    (fun (capacity, script) ->
      let f = F.create ~capacity () in
      let m = flight_model capacity in
      List.for_all
        (fun (i, step) ->
          let at = Int64.of_int ((i * 7919) - 3000) in
          let kind, label =
            match step with
            | Built len ->
                let kind = flight_kinds.(i mod Array.length flight_kinds) in
                let label =
                  String.init len (fun j -> Char.chr (97 + ((i + j) mod 26)))
                in
                F.record f ~now:at kind label;
                (kind, label)
            | Qd_op (push, qd, name, tok) ->
                let kind = if push then F.Push else F.Pop in
                F.record_qd_op f ~now:at kind ~qd name ~tok;
                (kind, Printf.sprintf "qd %d (%s) tok %d" qd name tok)
            | Qtoken tok ->
                F.record_qtoken f ~now:at tok;
                (F.Completion, Printf.sprintf "qtoken %d" tok)
            | Nic_rx (mac, len, ring) ->
                F.record_nic_rx f ~now:at ~mac ~len ~ring;
                (F.Enqueue, Printf.sprintf "nic %x rx %dB (ring %d)" mac len ring)
          in
          model_records m f ~at kind label)
        (List.mapi (fun i x -> (i, x)) script))

let flight_appenders_allocate_nothing () =
  (* A small ring, so the measured entries also evict; a tiny one, so
     the typed calls also take their cut-label path. *)
  let f = F.create ~capacity:256 () and tiny = F.create ~capacity:24 () in
  let typed f i =
    F.record_qd_op f ~now:9L F.Push ~qd:i "merge(tcp,udp)" ~tok:(-i);
    F.record_qtoken f ~now:10L (i * 1_000_003);
    F.record_nic_rx f ~now:11L ~mac:0x0200_0000_0001 ~len:i ~ring:(i land 7)
  in
  let entry i =
    if F.start f ~now:7L F.Retransmit then begin
      F.add_string f "tcp ";
      F.add_int f (-i);
      F.add_hex f i;
      F.add_int64 f 1_234_567_890_123L;
      F.commit f
    end;
    F.record f ~now:8L F.Mark "plain";
    typed f i;
    typed tiny i
  in
  for i = 1 to 100 do
    entry i
  done;
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    entry i
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool "ring evicted" true (F.evicted f > 0);
  check Alcotest.bool "typed labels cut" true
    (List.exists (fun e -> String.length e.F.what = 24 - 11) (F.entries tiny));
  check (Alcotest.float 0.) "minor words allocated" 0. words

(* Reading the ring renders typed labels; it must leave an entry that
   is still being built alone, as a sanitizer sink dumping the ring from
   inside an instrumented site would. *)
let flight_read_leaves_open_entry () =
  let f = F.create ~capacity:256 () in
  F.record_qd_op f ~now:1L F.Push ~qd:3 "merge(tcp,udp)" ~tok:77;
  F.record_nic_rx f ~now:2L ~mac:0xabc ~len:64 ~ring:1;
  check Alcotest.bool "started" true (F.start f ~now:3L F.Drop);
  F.add_string f "open ";
  let before = F.entries f in
  Format.asprintf "%a" F.pp f |> ignore;
  F.add_int f 42;
  F.commit f;
  check
    Alcotest.(list string)
    "labels"
    [ "qd 3 (merge(tcp,udp)) tok 77"; "nic abc rx 64B (ring 1)"; "open 42" ]
    (List.map (fun e -> e.F.what) (F.entries f));
  check Alcotest.int "read before commit" 2 (List.length before)

(* ---- the `demi stats --json` snapshot ----

   The docs promise a JSON-lines export whose counter names include the
   core.token.* and net.tcp.* families. Drive the same echo workload
   the stats subcommand runs, then parse every line with the JSON
   reader bench_diff uses and check the names. *)

module Json = Json_reader

let stats_json_workload () =
  let module Setup = Dk_apps.Sim_setup in
  let module Echo = Dk_apps.Echo in
  M.reset M.default;
  let w = Setup.world Demikernel in
  (match Echo.start_demi_server ~demi:w.server ~port:7 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "echo server failed to start");
  (match
     Echo.demi_rtt ~demi:w.client ~dst:(Setup.endpoint w.b 7) ~size:64
       ~rounds:5
   with
  | _, None -> ()
  | _, Some _ -> Alcotest.fail "echo workload failed");
  let now = Dk_sim.Engine.now w.engine in
  Export.json_lines ~now (M.snapshot M.default)

let stats_json_lines_parse_and_name () =
  let out = stats_json_workload () in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "snapshot is non-empty" true (lines <> []);
  let names =
    List.map
      (fun l ->
        let v = try Json.parse l with Json.Bad m -> Alcotest.fail (m ^ ": " ^ l) in
        (match Json.member "ts" v with
        | Some (Json.Num _) -> ()
        | _ -> Alcotest.fail ("missing ts: " ^ l));
        (match Json.member "kind" v with
        | Some (Json.Str ("counter" | "gauge" | "histogram")) -> ()
        | _ -> Alcotest.fail ("bad kind: " ^ l));
        match Json.member "name" v with
        | Some (Json.Str n) -> n
        | _ -> Alcotest.fail ("missing name: " ^ l))
      lines
  in
  List.iter
    (fun promised ->
      Alcotest.(check bool) (promised ^ " present") true
        (List.mem promised names))
    [
      "core.token.minted";
      "core.token.completed";
      "core.token.redeemed";
      "core.token.outstanding";
      "net.tcp.segs_sent";
      "net.tcp.segs_received";
      "net.tcp.retransmits";
      (* the batching/readiness fast paths export their hit rates *)
      "core.wait.ready_hits";
      "core.push.batched";
      "nic.tx.doorbells";
    ]

let stats_json_counter_values_sane () =
  let out = stats_json_workload () in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  let value_of name =
    List.find_map
      (fun l ->
        let v = Json.parse l in
        match (Json.member "name" v, Json.member "value" v) with
        | Some (Json.Str n), Some (Json.Num x) when n = name -> Some x
        | _ -> None)
      lines
  in
  (match value_of "core.token.minted" with
  | Some v -> Alcotest.(check bool) "tokens were minted" true (v > 0.)
  | None -> Alcotest.fail "core.token.minted has no value");
  (match (value_of "core.token.minted", value_of "core.token.completed") with
  | Some m, Some c ->
      Alcotest.(check bool) "completed <= minted" true (c <= m)
  | _ -> Alcotest.fail "token counters missing");
  (* the echo workload transmits frames, so its doorbells were rung and
     counted (the ready-FIFO hit accounting is exercised end-to-end by
     bench waitsmoke, which asserts the exact count) *)
  match value_of "nic.tx.doorbells" with
  | Some v -> Alcotest.(check bool) "doorbells rang" true (v > 0.)
  | None -> Alcotest.fail "nic.tx.doorbells has no value"

(* bench_diff gates CI on files this reader parses: a value followed
   by anything but whitespace is malformed, not a shorter document. *)
let json_rejects_trailing_garbage () =
  let rejects s =
    match Json.parse s with
    | _ -> false
    | exception Json.Bad _ -> true
  in
  Alcotest.(check bool) "trailing whitespace accepted" false
    (rejects "{\"a\": [1, 2]}\n");
  Alcotest.(check bool) "second value rejected" true (rejects "{\"a\": 1} {}");
  Alcotest.(check bool) "stray bracket rejected" true (rejects "[1]]");
  Alcotest.(check bool) "junk after number rejected" true (rejects "12 x")

let () =
  Alcotest.run "dk_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter get-or-create" `Quick counter_get_or_create;
          Alcotest.test_case "incr/add" `Quick counter_incr_add;
          Alcotest.test_case "default registry shared" `Quick default_registry_shared;
          Alcotest.test_case "gauge high-water" `Quick gauge_hwm;
          Alcotest.test_case "histogram observe" `Quick hist_observe;
          Alcotest.test_case "reset" `Quick reset_zeroes_keeps_instruments;
        ] );
      ( "instances",
        [
          Alcotest.test_case "bumps land on instance and class" `Quick
            instance_bumps_land_on_class;
          Alcotest.test_case "gauge high-water: own vs sum" `Quick
            instance_gauge_hwm;
          Alcotest.test_case "reset leaves instances" `Quick
            reset_leaves_instances;
          Alcotest.test_case "snapshots list classes only" `Quick
            snapshot_lists_classes_only;
          Alcotest.test_case "bumps allocate nothing" `Quick
            instance_bumps_allocate_nothing;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "sorted and complete" `Quick snapshot_sorted_and_complete;
          Alcotest.test_case "deterministic" `Quick snapshot_deterministic;
          Alcotest.test_case "table export" `Quick export_table_mentions_all;
          Alcotest.test_case "json escaping" `Quick export_json_escapes;
        ] );
      ( "shard aggregation",
        [
          Alcotest.test_case "shard names fold into shards.agg" `Quick
            shard_agg_folds;
          Alcotest.test_case "runtime instrument naming scheme" `Quick
            shard_runtime_names;
          Alcotest.test_case "no shard names is a no-op" `Quick
            shard_agg_noop_without_shards;
        ] );
      ( "flight",
        [
          Alcotest.test_case "record/entries" `Quick flight_record_entries;
          Alcotest.test_case "eviction" `Quick flight_eviction;
          Alcotest.test_case "disable/clear" `Quick flight_disable_and_clear;
          Alcotest.test_case "oversized label" `Quick flight_label_truncated;
          Alcotest.test_case "entry over 64 KiB" `Quick flight_long_entry;
          Alcotest.test_case "dump on violation" `Quick flight_dump_on_violation;
          Alcotest.test_case "appenders allocate nothing" `Quick
            flight_appenders_allocate_nothing;
          Alcotest.test_case "reading leaves the open entry" `Quick
            flight_read_leaves_open_entry;
        ] );
      ( "flight-props",
        List.map QCheck_alcotest.to_alcotest
          [
            flight_appenders_match_printf;
            flight_matches_model;
            flight_typed_match_model;
          ] );
      ( "stats --json",
        [
          Alcotest.test_case "lines parse, promised names present" `Quick
            stats_json_lines_parse_and_name;
          Alcotest.test_case "counter values sane" `Quick
            stats_json_counter_values_sane;
          Alcotest.test_case "reader rejects trailing garbage" `Quick
            json_rejects_trailing_garbage;
        ] );
    ]
