(* Tests for the dk-hot interprocedural cost analysis.

   The fixture corpus is the contract, analyzed as ONE program because
   the rules are cross-file: bad_alloc_chain.ml is charged for a
   string append that lives in good_chain_helper.ml. Every
   [(* FLAG rule *)] marker names a finding on exactly that line, and
   per file the two (line, rule) sets must match exactly. On top of
   the corpus, unit tests pin down the cost-specific engine behavior:
   by-name roots, cross-file chains, the exemption being local to the
   annotated function, static-closure precision, and the allowlist
   contract every dk-* driver shares. *)

let fixture_dir = "../tools/hot/fixtures"

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

(* The whole corpus, analyzed once as a single program. *)
let corpus_findings =
  lazy
    (let prog = Hot_engine.analyze_files (Tool_common.load [ fixture_dir ]) in
     Hot_engine.findings prog)

let findings_for file =
  Lazy.force corpus_findings
  |> List.filter (fun f -> Filename.basename f.Tool_common.path = file)
  |> List.map (fun f -> (f.Tool_common.line, f.Tool_common.rule))
  |> List.sort compare

let pair_list = Alcotest.(list (pair int string))

let bad_fixture_exact file () =
  let expected = expected_flags (read_file (Filename.concat fixture_dir file)) in
  Alcotest.(check bool)
    "fixture seeds at least one violation" true
    (expected <> []);
  Alcotest.check pair_list "every seeded violation flagged, nothing else"
    expected (findings_for file)

let good_fixture_clean file () =
  Lazy.force corpus_findings
  |> List.filter (fun f -> Filename.basename f.Tool_common.path = file)
  |> List.iter (fun f ->
         Printf.printf "unexpected: %s\n" (Tool_common.pp_finding f));
  Alcotest.check pair_list "clean fixture has zero findings" []
    (findings_for file)

let all_rule_families_covered () =
  let rules =
    Lazy.force corpus_findings
    |> List.map (fun f -> f.Tool_common.rule)
    |> List.sort_uniq compare
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " covered by corpus") true (List.mem r rules))
    [ "hot-alloc"; "hot-complexity"; "hot-poly"; "hot-annotation" ]

(* ---------------- engine behaviors ---------------- *)

let analyze name src =
  Hot_engine.analyze_files [ Tool_common.parse ~path:name src ]
let rules fs = List.sort_uniq compare (List.map (fun f -> f.Tool_common.rule) fs)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let surface_rooted_by_name () =
  (* Nic.receive is on the per-op surface by (module, name), no
     attribute needed; the tuple it builds is charged to it *)
  let prog = analyze "nic.ml" "let receive t frame = (t, frame)\n" in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  Alcotest.(check int) "at the root definition" 1 (List.hd fs).Tool_common.line;
  match Hot_engine.inventory prog with
  | [ r ] ->
      Alcotest.(check string) "kind is rx-delivery" "rx-delivery"
        r.Hot_engine.r_kind
  | inv ->
      Alcotest.fail (Printf.sprintf "expected one root, got %d" (List.length inv))

let cross_file_chain_charged_at_root () =
  let prog =
    Hot_engine.analyze_files
      [
        Tool_common.parse ~path:"render.ml"
          "let label n = string_of_int n ^ \"!\"\n";
        Tool_common.parse ~path:"pump.ml"
          "let deliver n = ignore (Render.label n)\n[@@hot]\n";
      ]
  in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check string) "reported in the root's file" "pump.ml"
    f.Tool_common.path;
  Alcotest.(check bool) "chain crosses the module boundary" true
    (contains ~sub:"Render.label" f.Tool_common.message
    && contains ~sub:"^" f.Tool_common.message)

let annotation_exempts_own_allocs_only () =
  (* [@@hot.alloc] strips the annotated function's own allocations;
     its callees' allocations still propagate to the root *)
  let prog =
    analyze "ann.ml"
      "let pair a b = (a, b)\n\
       let emit a b = (fst (pair a b), 0)\n\
       [@@hot.alloc \"the handle pair is the API's return surface\"]\n\
       let push a b = ignore (emit a b)\n\
       [@@hot]\n"
  in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check int) "at the root, not the annotated hop" 4
    f.Tool_common.line;
  Alcotest.(check bool) "witness is the unannotated callee" true
    (contains ~sub:"Ann.pair" f.Tool_common.message)

let capture_free_lambda_is_static () =
  (* a lambda with no captures is a static closure, allocated once at
     module init: only the capturing one is charged *)
  let prog =
    analyze "cb.ml"
      "let register cb = ignore cb\n\
       let step t = register (fun x -> x + t)\n\
       [@@hot]\n\
       let idle () = register (fun x -> x + 1)\n\
       [@@hot]\n"
  in
  let fs = Hot_engine.findings prog in
  Alcotest.(check (list string)) "one hot-alloc" [ "hot-alloc" ] (rules fs);
  Alcotest.(check int) "only the capturing lambda's root" 2
    (List.hd fs).Tool_common.line

let one_finding_per_family_per_root () =
  (* two distinct allocations under one root collapse into a single
     hot-alloc diagnostic: the budget is the root's *)
  let prog =
    analyze "many.ml"
      "let a x = [ x ]\n\
       let b x = (x, x)\n\
       let push x = ignore (a x); ignore (b x)\n\
       [@@hot]\n"
  in
  Alcotest.(check int) "one finding" 1
    (List.length (Hot_engine.findings prog))

let inventory_lists_roots () =
  let prog = analyze "demi.ml" "let pop t = t\nlet spin t = t\n[@@hot]\n" in
  let inv = Hot_engine.inventory prog in
  Alcotest.(check int) "two roots" 2 (List.length inv);
  let kinds = List.map (fun r -> r.Hot_engine.r_kind) inv in
  Alcotest.(check bool) "table root and attribute root" true
    (List.mem "demi-api" kinds && List.mem "annotated" kinds);
  Alcotest.(check bool) "json carries the kind" true
    (contains ~sub:"\"demi-api\"" (Hot_engine.inventory_json inv));
  Alcotest.(check bool) "table carries the key" true
    (contains ~sub:"Demi.spin" (Hot_engine.inventory_table inv))

let parse_error_reported () =
  let fs = Hot_engine.findings (analyze "broken.ml" "let f = (\n") in
  Alcotest.(check (list string)) "parse-error finding" [ "parse-error" ]
    (rules fs)

let scan_dirs_walks_fixtures () =
  Alcotest.(check int) "scans every fixture"
    (List.length (fixtures "bad_") + List.length (fixtures "good_"))
    (List.length (Tool_common.load [ fixture_dir ]))

(* ---------------- allowlist contract ---------------- *)

(* One copy of the allowlist semantics serves all four rule families
   (one allowlist, one driver): a matching entry suppresses, a stale
   entry is reported back and fails the run. Exercised here against
   real dk-hot corpus findings. *)
let allowlist_suppresses_and_reports_stale () =
  let findings = Lazy.force corpus_findings in
  let victim =
    List.find (fun f -> f.Tool_common.rule = "hot-alloc") findings
  in
  let allow =
    [
      {
        Tool_common.a_rule = "hot-alloc";
        a_path = victim.Tool_common.path;
        used = false;
      };
      { Tool_common.a_rule = "hot-poly"; a_path = "lib/gone.ml"; used = false };
    ]
  in
  let kept, stale = Tool_common.apply_allowlist allow findings in
  Alcotest.(check bool) "covered findings suppressed" true
    (not
       (List.exists
          (fun f ->
            f.Tool_common.rule = "hot-alloc"
            && f.Tool_common.path = victim.Tool_common.path)
          kept));
  Alcotest.(check (list string)) "the dead entry is stale" [ "hot-poly" ]
    (List.map (fun e -> e.Tool_common.a_rule) stale)

let shipped_allowlist_is_empty () =
  (* the acceptance bar for this tool: real findings get fixed or
     classified at the allocation site, never allowlisted away *)
  Alcotest.(check (list string)) "the shipped allowlist has no hot-* entry" []
    (Tool_common.load_allowlist "../tools/analyze/allowlist.txt"
    |> List.filter_map (fun (e : Tool_common.allow_entry) ->
           if Tool_common.starts_with ~prefix:"hot-" e.a_rule then
             Some (e.a_rule ^ " " ^ e.a_path)
           else None))

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
  Alcotest.run "dk-hot"
    [
      ("bad fixtures (exact flag match)", corpus_bad);
      ("good fixtures (zero findings)", corpus_good);
      ( "engine",
        [
          Alcotest.test_case "all four rule families covered" `Quick
            all_rule_families_covered;
          Alcotest.test_case "surface rooted by name" `Quick
            surface_rooted_by_name;
          Alcotest.test_case "cross-file chain at root" `Quick
            cross_file_chain_charged_at_root;
          Alcotest.test_case "annotation exempts own allocs only" `Quick
            annotation_exempts_own_allocs_only;
          Alcotest.test_case "capture-free lambda is static" `Quick
            capture_free_lambda_is_static;
          Alcotest.test_case "one finding per family per root" `Quick
            one_finding_per_family_per_root;
          Alcotest.test_case "inventory lists roots" `Quick
            inventory_lists_roots;
          Alcotest.test_case "parse error reported" `Quick parse_error_reported;
          Alcotest.test_case "scan_dirs walks fixtures" `Quick
            scan_dirs_walks_fixtures;
        ] );
      ( "allowlist contract",
        [
          Alcotest.test_case "suppresses and reports stale" `Quick
            allowlist_suppresses_and_reports_stale;
          Alcotest.test_case "shipped allowlist has no hot-* entry" `Quick
            shipped_allowlist_is_empty;
        ] );
    ]
