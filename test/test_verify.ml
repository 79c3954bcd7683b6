(* Tests for the dk-verify typestate/dataflow engine.

   The fixture corpus is the contract: every [(* FLAG rule *)] marker
   in a bad_*.ml names a finding the engine must produce on exactly
   that line, good_*.ml must come up empty, and the two sets are
   compared exactly — no extra findings tolerated either way. On top
   of the corpus, unit tests pin down the per-rule behaviors
   (escape-stops-tracking, allowlist subtraction, stale detection,
   parse errors). *)

let fixture_dir = "../tools/verify/fixtures"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixtures prefix =
  Sys.readdir fixture_dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
         && Filename.check_suffix f ".ml")
  |> List.sort compare

(* [(* FLAG rule ... *)] markers: expected (line, rule) pairs. *)
let expected_flags src =
  let re = Str.regexp "(\\* FLAG \\([a-z- ]+\\)\\*)" in
  let out = ref [] in
  List.iteri
    (fun i line ->
      try
        ignore (Str.search_forward re line 0);
        let rules = String.trim (Str.matched_group 1 line) in
        List.iter
          (fun r -> out := (i + 1, r) :: !out)
          (String.split_on_char ' ' rules)
      with Not_found -> ())
    (String.split_on_char '\n' src);
  List.sort compare !out

let scan_fixture file =
  let path = Filename.concat fixture_dir file in
  Verify_engine.scan_source ~path (read_file path)

let pair_list = Alcotest.(list (pair int string))

let bad_fixture_exact file () =
  let src = read_file (Filename.concat fixture_dir file) in
  let expected = expected_flags src in
  Alcotest.(check bool)
    "fixture seeds at least one violation" true
    (expected <> []);
  let got =
    scan_fixture file
    |> List.map (fun f -> (f.Tool_common.line, f.Tool_common.rule))
    |> List.sort compare
  in
  Alcotest.check pair_list "every seeded violation flagged, nothing else"
    expected got

let good_fixture_clean file () =
  let got = scan_fixture file in
  List.iter
    (fun f -> Printf.printf "unexpected: %s\n" (Tool_common.pp_finding f))
    got;
  Alcotest.(check int) "clean fixture has zero findings" 0 (List.length got)

let all_rule_families_covered () =
  let rules =
    List.concat_map scan_fixture (fixtures "bad_")
    |> List.map (fun f -> f.Tool_common.rule)
    |> List.sort_uniq compare
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " covered by corpus") true (List.mem r rules))
    [ "qd-typestate"; "token-linear"; "sga-ownership"; "ignored-result" ]

(* ---------------- unit behaviors ---------------- *)

let scan src = Verify_engine.scan_source ~path:"examples/x.ml" src
let rules fs =
  List.sort_uniq compare (List.map (fun f -> f.Tool_common.rule) fs)

let escape_stops_tracking () =
  (* a qd handed to an unknown function carries no close obligation *)
  let fs =
    scan
      "let f demi handoff =\n\
      \  match Demi.socket demi `Tcp with\n\
      \  | Ok qd -> handoff qd\n\
      \  | Error _ -> ()\n"
  in
  Alcotest.(check int) "no findings after escape" 0 (List.length fs)

let closure_capture_escapes_but_body_checked () =
  (* capture releases the outer obligation, yet code inside the closure
     is still analyzed: the inner discard must fire *)
  let fs =
    scan
      "let f demi reg =\n\
      \  match Demi.socket demi `Tcp with\n\
      \  | Ok qd -> reg (fun () -> ignore (Demi.close demi qd))\n\
      \  | Error _ -> ()\n"
  in
  Alcotest.(check (list string)) "only the inner ignore fires"
    [ "ignored-result" ] (rules fs)

let underscore_binding_untracked () =
  let fs =
    scan
      "let must = function Ok v -> v | Error _ -> assert false\n\
       let f demi =\n\
      \  let _scratch = must (Demi.socket demi `Tcp) in\n\
      \  ()\n"
  in
  Alcotest.(check int) "deliberate _-prefixed discard allowed" 0
    (List.length fs)

let parse_error_reported () =
  let fs = scan "let f = (\n" in
  Alcotest.(check (list string)) "parse-error finding" [ "parse-error" ]
    (rules fs)

let real_tree_scan_smoke () =
  (* the shared front end walks and parses the fixture dir without
     filesystem surprises; file count matches the corpus *)
  Alcotest.(check int) "scans every fixture"
    (List.length (fixtures "bad_") + List.length (fixtures "good_"))
    (List.length (Tool_common.load [ fixture_dir ]))

let allowlist_subtracts_and_detects_stale () =
  let findings = scan_fixture "bad_token.ml" in
  Alcotest.(check bool) "corpus yields findings" true (findings <> []);
  let path = (List.hd findings).Tool_common.path in
  let file = Filename.temp_file "verify_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Printf.fprintf oc "# comment\ntoken-linear %s\nqd-typestate %s\n" path
        path;
      close_out oc;
      let allow = Tool_common.load_allowlist file in
      let kept, stale = Tool_common.apply_allowlist allow findings in
      Alcotest.(check int) "token-linear findings all suppressed" 0
        (List.length
           (List.filter (fun f -> f.Tool_common.rule = "token-linear") kept));
      Alcotest.(check (list string)) "qd-typestate entry is stale"
        [ "qd-typestate" ]
        (List.map (fun e -> e.Tool_common.a_rule) stale))

let () =
  let corpus_bad =
    List.map
      (fun f -> Alcotest.test_case f `Quick (bad_fixture_exact f))
      (fixtures "bad_")
  in
  let corpus_good =
    List.map
      (fun f -> Alcotest.test_case f `Quick (good_fixture_clean f))
      (fixtures "good_")
  in
  Alcotest.run "dk-verify"
    [
      ("bad fixtures (exact flag match)", corpus_bad);
      ("good fixtures (zero findings)", corpus_good);
      ( "engine behaviors",
        [
          Alcotest.test_case "all four rule families covered" `Quick
            all_rule_families_covered;
          Alcotest.test_case "escape stops tracking" `Quick
            escape_stops_tracking;
          Alcotest.test_case "closure body still checked" `Quick
            closure_capture_escapes_but_body_checked;
          Alcotest.test_case "underscore binding untracked" `Quick
            underscore_binding_untracked;
          Alcotest.test_case "parse error reported" `Quick parse_error_reported;
          Alcotest.test_case "scan_dirs walks fixtures" `Quick
            real_tree_scan_smoke;
          Alcotest.test_case "allowlist subtract + stale" `Quick
            allowlist_subtracts_and_detects_stale;
        ] );
    ]
