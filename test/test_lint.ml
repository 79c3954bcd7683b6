(* Tests for the dk-lint rule engine: each rule fires on a seeded
   violation, stays quiet on clean code, and the comment/string
   stripping keeps it from tripping on text that merely mentions a
   forbidden construct. *)

open Tool_common
open Lint_engine

let check = Alcotest.check
let check_int = check Alcotest.int

let rules findings = List.sort_uniq compare (List.map (fun f -> f.rule) findings)
let lines_of rule findings =
  List.filter_map (fun f -> if f.rule = rule then Some f.line else None) findings

let scan ?(path = "lib/mem/example.ml") src = scan_source ~path src

(* ---------------- unsafe-op ---------------- *)

let unsafe_in_fast_path () =
  let fs = scan "let f b i = Bytes.unsafe_get b i\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "unsafe-op" ] (rules fs);
  check (Alcotest.list Alcotest.int) "line" [ 1 ] (lines_of "unsafe-op" fs)

let obj_magic () =
  let fs = scan "let coerce x =\n  Obj.magic x\n" in
  check (Alcotest.list Alcotest.int) "line 2" [ 2 ] (lines_of "unsafe-op" fs)

let unsafe_outside_fast_path_ok () =
  (* the rule is scoped to lib/mem, lib/core, lib/net, lib/device *)
  let fs = scan ~path:"bench/harness.ml" "let f b i = Bytes.unsafe_get b i\n" in
  check_int "not flagged outside fast path" 0
    (List.length (lines_of "unsafe-op" fs))

let unsafe_in_device () =
  (* descriptor rings are fast-path: lib/device is in unsafe-op scope *)
  let fs = scan ~path:"lib/device/ring.ml" "let f b i = Bytes.unsafe_get b i\n" in
  check (Alcotest.list Alcotest.int) "line" [ 1 ] (lines_of "unsafe-op" fs)

let unsafe_in_wire () =
  (* the frame codecs parse untrusted frames: lib/wire is fast-path *)
  let fs = scan ~path:"lib/wire/ipv4.ml" "let f b i = Bytes.unsafe_get b i\n" in
  check (Alcotest.list Alcotest.int) "line" [ 1 ] (lines_of "unsafe-op" fs)

let poly_compare_not_in_device () =
  (* ...but the name-heuristic poly-compare rule stays out of it *)
  let fs = scan ~path:"lib/device/ring.ml" "let same buf b = buf = b\n" in
  check_int "poly-compare not extended to lib/device" 0
    (List.length (lines_of "poly-compare" fs))

let unsafe_in_comment_ok () =
  let fs = scan "(* never call Bytes.unsafe_get here *)\nlet x = 1\n" in
  check_int "comment does not fire" 0 (List.length fs)

let unsafe_in_string_ok () =
  let fs = scan "let s = \"Obj.magic\"\n" in
  check_int "string literal does not fire" 0 (List.length fs)

(* ---------------- poly-compare ---------------- *)

let poly_eq_on_buf () =
  let fs = scan "let same buf other_buf = buf = other_buf\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "poly-compare" ] (rules fs)

let poly_compare_fn_on_sga () =
  let fs = scan "let c sga sga' = compare sga sga'\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "poly-compare" ] (rules fs)

let let_binding_is_not_compare () =
  let fs = scan "let buf = make ()\nlet rx_buf = other\n" in
  check_int "bindings not flagged" 0 (List.length (lines_of "poly-compare" fs))

let int_compare_ok () =
  let fs = scan "let f a b = a = b\n" in
  check_int "non-bufferish names not flagged" 0 (List.length fs)

(* ---------------- print-in-lib ---------------- *)

let printf_in_lib () =
  let fs = scan ~path:"lib/apps/echo.ml" "let () = Printf.printf \"hi\"\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "print-in-lib" ] (rules fs)

let print_endline_in_lib () =
  let fs = scan ~path:"lib/apps/echo.ml" "let () = print_endline \"hi\"\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "print-in-lib" ] (rules fs)

let printf_in_bench_ok () =
  (* bench/examples report results on stdout by design *)
  let fs = scan ~path:"bench/report.ml" "let () = Printf.printf \"ok\"\n" in
  check_int "bench may print" 0 (List.length fs)

let sprintf_ok () =
  let fs = scan ~path:"lib/apps/echo.ml" "let s = Printf.sprintf \"x%d\" 1\n" in
  check_int "sprintf builds strings, not output" 0 (List.length fs)

(* ---------------- catch-all-exn ---------------- *)

let try_with_wildcard () =
  let fs = scan "let f () = try g () with _ -> ()\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "catch-all-exn" ] (rules fs)

let try_with_named_exn_ok () =
  let fs = scan "let f () = try g () with Not_found -> ()\n" in
  check_int "specific handler ok" 0 (List.length fs)

let match_wildcard_ok () =
  (* a wildcard in a plain match is fine; only exception handlers count *)
  let fs = scan "let f x = match x with Some y -> y | _ -> 0\n" in
  check_int "match wildcard ok" 0 (List.length (lines_of "catch-all-exn" fs))

let multiline_try () =
  let src = "let f () =\n  try\n    g ()\n  with\n  | _ ->\n    ()\n" in
  let fs = scan src in
  check (Alcotest.list Alcotest.int) "line of the arm" [ 5 ]
    (lines_of "catch-all-exn" fs)

(* ---------------- exit-outside-bin ---------------- *)

let exit_in_lib () =
  let fs = scan "let die () = exit 1\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "exit-outside-bin" ] (rules fs)

let exit_in_bin_ok () =
  let fs = scan ~path:"bin/dk_cli.ml" "let die () = exit 1\n" in
  check_int "bin may exit" 0 (List.length fs)

(* ---------------- adhoc-counter ---------------- *)

let mutable_counter_in_lib () =
  let fs = scan ~path:"lib/net/x.ml" "type t = { mutable rx_drops : int }\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "adhoc-counter" ] (rules fs)

let ref_counter_in_lib () =
  let fs = scan ~path:"lib/device/x.ml" "let retransmits = ref 0\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "adhoc-counter" ] (rules fs)

let counter_in_obs_ok () =
  (* lib/obs is where counters live; its own state is exempt *)
  let fs =
    scan ~path:"lib/obs/metrics.ml"
      "type c = { mutable drops : int }\nlet wakeups = ref 0\n"
  in
  check_int "lib/obs exempt" 0 (List.length (lines_of "adhoc-counter" fs))

let counter_in_bench_ok () =
  let fs = scan ~path:"bench/harness.ml" "let drops = ref 0\n" in
  check_int "outside lib ok" 0 (List.length (lines_of "adhoc-counter" fs))

let non_statsy_mutable_ok () =
  (* mutable ints that aren't statistics (cursors, capacities) pass *)
  let fs =
    scan ~path:"lib/net/x.ml"
      "type t = { mutable head : int; mutable capacity : int }\nlet next_qd = ref 0\n"
  in
  check_int "non-statsy names ok" 0 (List.length (lines_of "adhoc-counter" fs))

let statsy_ref_nonzero_init_ok () =
  (* a ref seeded with a real value is state, not a counter *)
  let fs = scan ~path:"lib/net/x.ml" "let retries = ref 3\n" in
  check_int "non-zero init ok" 0 (List.length (lines_of "adhoc-counter" fs))

(* ---------------- fault-site ---------------- *)

let random_in_device () =
  let fs = scan ~path:"lib/device/nic.ml" "let flip () = Random.bool ()\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "fault-site" ] (rules fs)

let wallclock_in_fault () =
  let fs = scan ~path:"lib/fault/fault.ml" "let now () = Unix.gettimeofday ()\n" in
  check (Alcotest.list Alcotest.string) "rule" [ "fault-site" ] (rules fs)

let sys_time_in_device () =
  let fs = scan ~path:"lib/device/block.ml" "let t0 = Sys.time ()\n" in
  check (Alcotest.list Alcotest.int) "line" [ 1 ] (lines_of "fault-site" fs)

let seeded_rng_in_device_ok () =
  (* the deterministic simulator RNG is exactly what the rule steers to *)
  let fs =
    scan ~path:"lib/device/fabric.ml"
      "let jitter rng = Dk_sim.Rng.int rng 100\n"
  in
  check_int "Dk_sim.Rng allowed" 0 (List.length (lines_of "fault-site" fs))

let random_outside_device_ok () =
  let fs = scan ~path:"bench/harness.ml" "let r = Random.int 5\n" in
  check_int "scoped to device/fault dirs" 0
    (List.length (lines_of "fault-site" fs))

(* ---------------- doorbell-site ---------------- *)

let doorbell_in_device () =
  let fs =
    scan ~path:"lib/device/nic.ml"
      "let ring t = Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.pcie_doorbell\n"
  in
  check (Alcotest.list Alcotest.string) "rule" [ "doorbell-site" ] (rules fs)

let doorbell_in_core () =
  let fs =
    scan ~path:"lib/core/demi.ml"
      "let f t = Engine.consume t.engine t.cost.Cost.pcie_doorbell\n"
  in
  check (Alcotest.list Alcotest.int) "line" [ 1 ] (lines_of "doorbell-site" fs)

let doorbell_module_exempt () =
  (* the submission stage itself is the one legitimate consumer *)
  let fs =
    scan ~path:"lib/device/doorbell.ml"
      "let ring t = Dk_sim.Engine.consume t.engine t.cost.Dk_sim.Cost.pcie_doorbell\n"
  in
  check_int "Doorbell exempt" 0 (List.length (lines_of "doorbell-site" fs))

let doorbell_cost_def_exempt () =
  (* the cost model defines the constant; lib/sim is out of scope *)
  let fs = scan ~path:"lib/sim/cost.ml" "let f t = t.pcie_doorbell\n" in
  check_int "lib/sim exempt" 0 (List.length (lines_of "doorbell-site" fs))

let doorbell_outside_lib_ok () =
  let fs =
    scan ~path:"test/test_device.ml" "let c = cost.Cost.pcie_doorbell\n"
  in
  check_int "tests exempt" 0 (List.length (lines_of "doorbell-site" fs))

(* ---------------- offload-site ---------------- *)

let table_write_in_apps () =
  let fs =
    scan ~path:"lib/apps/kv_app.ml" "let f t k v = Table.insert t k v\n"
  in
  check (Alcotest.list Alcotest.string) "rule" [ "offload-site" ] (rules fs)

let qualified_table_read_in_shard () =
  let fs =
    scan ~path:"lib/shard/shard.ml"
      "let g t k = Dk_device.Table.lookup t k\n"
  in
  check (Alcotest.list Alcotest.int) "line" [ 1 ] (lines_of "offload-site" fs)

let ctrl_queue_bypass () =
  let fs =
    scan ~path:"lib/apps/loadgen/loadgen.ml"
      "let ins nic k v = Dk_device.Nic.ctrl_insert nic k v\n"
  in
  check (Alcotest.list Alcotest.string) "rule" [ "offload-site" ] (rules fs)

let table_in_device_ok () =
  (* the device layer owns the table *)
  let fs = scan ~path:"lib/device/nic.ml" "let f t k = Table.lookup t k\n" in
  check_int "lib/device exempt" 0 (List.length (lines_of "offload-site" fs))

let ctrl_path_in_demi_ok () =
  (* Demi.offload_insert/update/invalidate is the sanctioned host path *)
  let fs =
    scan ~path:"lib/core/demi.ml"
      "let ins stack k v = Dk_device.Nic.ctrl_insert (Stack.nic stack) k v\n"
  in
  check_int "Demi control path exempt" 0
    (List.length (lines_of "offload-site" fs))

let stats_field_projection_ok () =
  (* reading a Table.stats record field off a Demi.offload_stats result
     tokenizes with the receiver prefix, not a Table call *)
  let fs =
    scan ~path:"lib/apps/loadgen/loadgen.ml"
      "let hits s = s.Dk_device.Table.hits\n"
  in
  check_int "stats projection ok" 0 (List.length (lines_of "offload-site" fs))

let arp_table_ok () =
  (* lib/net's ARP cache is a different Table module entirely *)
  let fs =
    scan ~path:"lib/net/stack.ml" "let m t ip = Arp.Table.lookup t.arp ip\n"
  in
  check_int "Arp.Table ok" 0 (List.length (lines_of "offload-site" fs))

(* ---------------- stripping / line numbers ---------------- *)

let nested_comments () =
  let src = "(* outer (* Obj.magic inside *) still comment *)\nlet x = 1\n" in
  check_int "nested comment stripped" 0 (List.length (scan src))

let line_numbers_survive_stripping () =
  let src = "(* line 1\n   line 2 *)\nlet f () = try g () with _ -> ()\n" in
  let fs = scan src in
  check (Alcotest.list Alcotest.int) "finding on line 3" [ 3 ]
    (lines_of "catch-all-exn" fs)

(* ---------------- allowlist ---------------- *)

let allowlist_suppresses_and_reports_stale () =
  let findings =
    [
      { path = "lib/mem/a.ml"; line = 3; rule = "unsafe-op"; message = "m" };
      { path = "lib/mem/b.ml"; line = 9; rule = "poly-compare"; message = "m" };
    ]
  in
  let allow =
    [
      { a_rule = "unsafe-op"; a_path = "lib/mem/a.ml"; used = false };
      { a_rule = "print-in-lib"; a_path = "lib/gone.ml"; used = false };
    ]
  in
  let kept, stale = apply_allowlist allow findings in
  check (Alcotest.list Alcotest.string) "kept" [ "poly-compare" ] (rules kept);
  check_int "one stale entry" 1 (List.length stale);
  check Alcotest.string "the stale one" "print-in-lib"
    (List.hd stale).a_rule

let () =
  Alcotest.run "dk_lint"
    [
      ( "unsafe-op",
        [
          Alcotest.test_case "fires in fast path" `Quick unsafe_in_fast_path;
          Alcotest.test_case "Obj.magic" `Quick obj_magic;
          Alcotest.test_case "scoped to fast path" `Quick
            unsafe_outside_fast_path_ok;
          Alcotest.test_case "fires in lib/device" `Quick unsafe_in_device;
          Alcotest.test_case "fires in lib/wire" `Quick unsafe_in_wire;
          Alcotest.test_case "poly-compare not in lib/device" `Quick
            poly_compare_not_in_device;
          Alcotest.test_case "comment immune" `Quick unsafe_in_comment_ok;
          Alcotest.test_case "string immune" `Quick unsafe_in_string_ok;
        ] );
      ( "poly-compare",
        [
          Alcotest.test_case "= on buf" `Quick poly_eq_on_buf;
          Alcotest.test_case "compare on sga" `Quick poly_compare_fn_on_sga;
          Alcotest.test_case "let-binding immune" `Quick
            let_binding_is_not_compare;
          Alcotest.test_case "plain names immune" `Quick int_compare_ok;
        ] );
      ( "print-in-lib",
        [
          Alcotest.test_case "printf" `Quick printf_in_lib;
          Alcotest.test_case "print_endline" `Quick print_endline_in_lib;
          Alcotest.test_case "bench exempt" `Quick printf_in_bench_ok;
          Alcotest.test_case "sprintf ok" `Quick sprintf_ok;
        ] );
      ( "catch-all-exn",
        [
          Alcotest.test_case "try with _" `Quick try_with_wildcard;
          Alcotest.test_case "named handler ok" `Quick try_with_named_exn_ok;
          Alcotest.test_case "match wildcard ok" `Quick match_wildcard_ok;
          Alcotest.test_case "multiline try" `Quick multiline_try;
        ] );
      ( "exit",
        [
          Alcotest.test_case "exit in lib" `Quick exit_in_lib;
          Alcotest.test_case "exit in bin ok" `Quick exit_in_bin_ok;
        ] );
      ( "adhoc-counter",
        [
          Alcotest.test_case "mutable field" `Quick mutable_counter_in_lib;
          Alcotest.test_case "ref cell" `Quick ref_counter_in_lib;
          Alcotest.test_case "lib/obs exempt" `Quick counter_in_obs_ok;
          Alcotest.test_case "bench exempt" `Quick counter_in_bench_ok;
          Alcotest.test_case "non-statsy ok" `Quick non_statsy_mutable_ok;
          Alcotest.test_case "non-zero init ok" `Quick statsy_ref_nonzero_init_ok;
        ] );
      ( "fault-site",
        [
          Alcotest.test_case "Random in lib/device" `Quick random_in_device;
          Alcotest.test_case "wall-clock in lib/fault" `Quick wallclock_in_fault;
          Alcotest.test_case "Sys.time in lib/device" `Quick sys_time_in_device;
          Alcotest.test_case "Dk_sim.Rng ok" `Quick seeded_rng_in_device_ok;
          Alcotest.test_case "scoped to device dirs" `Quick
            random_outside_device_ok;
        ] );
      ( "doorbell-site",
        [
          Alcotest.test_case "in lib/device" `Quick doorbell_in_device;
          Alcotest.test_case "in lib/core" `Quick doorbell_in_core;
          Alcotest.test_case "Doorbell module exempt" `Quick
            doorbell_module_exempt;
          Alcotest.test_case "lib/sim exempt" `Quick doorbell_cost_def_exempt;
          Alcotest.test_case "outside lib ok" `Quick doorbell_outside_lib_ok;
        ] );
      ( "offload-site",
        [
          Alcotest.test_case "Table write in lib/apps" `Quick
            table_write_in_apps;
          Alcotest.test_case "qualified read in lib/shard" `Quick
            qualified_table_read_in_shard;
          Alcotest.test_case "ctrl-queue bypass" `Quick ctrl_queue_bypass;
          Alcotest.test_case "lib/device exempt" `Quick table_in_device_ok;
          Alcotest.test_case "Demi control path exempt" `Quick
            ctrl_path_in_demi_ok;
          Alcotest.test_case "stats projection ok" `Quick
            stats_field_projection_ok;
          Alcotest.test_case "Arp.Table ok" `Quick arp_table_ok;
        ] );
      ( "stripping",
        [
          Alcotest.test_case "nested comments" `Quick nested_comments;
          Alcotest.test_case "line numbers" `Quick
            line_numbers_survive_stripping;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppress + stale" `Quick
            allowlist_suppresses_and_reports_stale;
        ] );
    ]
