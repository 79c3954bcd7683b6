(* Tests for the dk-shard interprocedural analysis.

   The fixture corpus is the contract — but unlike dk-verify the
   corpus must be analyzed as ONE program, because the rules are
   cross-file: bad_mut_use.ml mutates a table that good_mut_decl.ml
   declared [@@shard.immutable]. Every [(* FLAG rule *)] marker names
   a finding on exactly that line, and per file the two (line, rule)
   sets must match exactly. On top of the corpus, unit tests pin down
   the call-graph layer: two-hop propagation, closure capture, module
   aliasing, and the unknown-call taint. *)

let fixture_dir = "../tools/shard/fixtures"

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
    (let prog = Shard_engine.analyze_files (Tool_common.load [ fixture_dir ]) in
     Shard_engine.findings prog)

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
    [ "shard-state"; "det-source"; "poll-blocking" ]

(* ---------------- call-graph behaviors ---------------- *)

let analyze name src =
  Shard_engine.analyze_files [ Tool_common.parse ~path:name src ]
let rules fs = List.sort_uniq compare (List.map (fun f -> f.Tool_common.rule) fs)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let two_hop_chain_reported_at_entry () =
  (* the intrinsic sits two calls below the entry point; the finding
     lands on the entry's definition line with the full chain *)
  let prog =
    analyze "hop.ml"
      "let pick () = Random.int 8\n\
       let backoff () = pick () + 1\n\
       let submit () = backoff ()\n\
       [@@shard.entry]\n"
  in
  let fs = Shard_engine.findings prog in
  Alcotest.(check (list string)) "one det-source" [ "det-source" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check int) "reported at the entry definition" 3 f.Tool_common.line;
  Alcotest.(check bool) "chain names both hops" true
    (contains ~sub:"Hop.backoff" f.Tool_common.message
    && contains ~sub:"Hop.pick" f.Tool_common.message
    && contains ~sub:"Random.int" f.Tool_common.message)

let closure_capture_propagates () =
  (* a registered closure that calls a captured local function inherits
     the local's blocking effect *)
  let prog =
    analyze "cap.ml"
      "let arm engine demi tok =\n\
      \  let redeem () = ignore (Demi.wait demi tok) in\n\
      \  ignore (Dk_sim.Engine.at engine 5L (fun () -> redeem ()))\n"
  in
  let fs = Shard_engine.findings prog in
  Alcotest.(check (list string)) "one poll-blocking" [ "poll-blocking" ]
    (rules fs);
  let f = List.hd fs in
  Alcotest.(check int) "reported at the registration" 3 f.Tool_common.line;
  Alcotest.(check bool) "blames Demi.wait" true
    (contains ~sub:"Demi.wait" f.Tool_common.message)

let module_alias_resolved () =
  (* [module E = Dk_sim.Engine] must not hide the registration surface *)
  let prog =
    analyze "ali.ml"
      "module E = Dk_sim.Engine\n\
       let go engine = ignore (E.at engine 1L (fun () -> Unix.sleep 1))\n"
  in
  let fs = Shard_engine.findings prog in
  Alcotest.(check (list string)) "alias still registers a poll root"
    [ "poll-blocking" ] (rules fs);
  Alcotest.(check bool) "blames Unix.sleep" true
    (contains ~sub:"Unix.sleep" (List.hd fs).Tool_common.message)

let unknown_call_taints_but_stays_quiet () =
  (* calling through a parameter is untrackable: the summary is marked
     unknown for honesty, but no finding is emitted — flagging every
     [t.on_event ()] callback would drown the signal *)
  let prog = analyze "unk.ml" "let call_it f = f ()\nlet pure x = x + 1\n" in
  (match Shard_engine.summary_of prog "Unk.call_it" with
  | None -> Alcotest.fail "summary for Unk.call_it missing"
  | Some s -> Alcotest.(check bool) "tainted unknown" true s.Shard_engine.unknown);
  (match Shard_engine.summary_of prog "Unk.pure" with
  | None -> Alcotest.fail "summary for Unk.pure missing"
  | Some s -> Alcotest.(check bool) "pure fn untainted" false s.Shard_engine.unknown);
  Alcotest.(check int) "no findings from unknown alone" 0
    (List.length (Shard_engine.findings prog))

let inventory_classifies () =
  let prog =
    analyze "inv.ml"
      "let table = Hashtbl.create 8 [@@shard.immutable \"decode table\"]\n\
       let hits = ref 0\n"
  in
  let inv = Shard_engine.inventory prog in
  Alcotest.(check int) "two globals inventoried" 2 (List.length inv);
  let find name = List.find (fun g -> g.Shard_engine.g_name = name) inv in
  (match (find "table").Shard_engine.g_class with
  | Shard_engine.Immutable why ->
      Alcotest.(check string) "reason kept" "decode table" why
  | _ -> Alcotest.fail "table should classify Immutable");
  (match (find "hits").Shard_engine.g_class with
  | Shard_engine.Unclassified -> ()
  | _ -> Alcotest.fail "bare ref should be Unclassified");
  Alcotest.(check (list string)) "only the bare ref is flagged"
    [ "shard-state" ]
    (rules (Shard_engine.findings prog));
  Alcotest.(check bool) "json carries the classification" true
    (contains ~sub:"\"shared-immutable\"" (Shard_engine.inventory_json inv))

(* [Itbl.create] at module level is a hash table in the inventory,
   as [Hashtbl.create] is, not a generic constructed value. *)
let itbl_global_is_hashtbl () =
  let prog =
    analyze "tbl.ml"
      "let by_qd = Dk_util.Itbl.create 8 [@@shard.per_shard \"qd table\"]\n"
  in
  match Shard_engine.inventory prog with
  | [ g ] ->
      Alcotest.(check bool) "kind is hashtbl" true
        (g.Shard_engine.g_kind = Shard_engine.GHashtbl)
  | inv ->
      Alcotest.fail
        (Printf.sprintf "expected one global, got %d" (List.length inv))

let tooling_classified_and_exempt () =
  let prog =
    analyze "tool.ml"
      "let sink = ref None [@@shard.tooling \"test tap\"]\n\
       let fire () = sink := Some 1\n"
  in
  let inv = Shard_engine.inventory prog in
  (match
     (List.find (fun g -> g.Shard_engine.g_name = "sink") inv)
       .Shard_engine.g_class
   with
  | Shard_engine.Tooling why ->
      Alcotest.(check string) "reason kept" "test tap" why
  | _ -> Alcotest.fail "sink should classify Tooling");
  Alcotest.(check int) "tooling state raises no finding" 0
    (List.length (Shard_engine.findings prog));
  Alcotest.(check bool) "json carries the tooling class" true
    (contains ~sub:"\"tooling\"" (Shard_engine.inventory_json inv))

let parse_error_reported () =
  let fs = Shard_engine.findings (analyze "broken.ml" "let f = (\n") in
  Alcotest.(check (list string)) "parse-error finding" [ "parse-error" ]
    (rules fs)

let scan_dirs_walks_fixtures () =
  Alcotest.(check int) "scans every fixture"
    (List.length (fixtures "bad_") + List.length (fixtures "good_"))
    (List.length (Tool_common.load [ fixture_dir ]))

(* ---------------- shared plumbing ---------------- *)

let walk_skips_build_and_dot_dirs () =
  (* a stray local _build/ or .git/ must never inject phantom files
     into any of the three tools *)
  let root = Filename.concat (Filename.get_temp_dir_name ()) "dk_walk_test" in
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  if Sys.file_exists root then rm root;
  let touch p =
    let oc = open_out p in
    output_string oc "let x = 1\n";
    close_out oc
  in
  Sys.mkdir root 0o755;
  List.iter
    (fun d -> Sys.mkdir (Filename.concat root d) 0o755)
    [ "_build"; ".git"; "src" ];
  touch (Filename.concat root "a.ml");
  touch (Filename.concat root "src/b.ml");
  touch (Filename.concat root "_build/phantom.ml");
  touch (Filename.concat root ".git/ghost.ml");
  touch (Filename.concat root ".hidden.ml");
  touch (Filename.concat root "notes.txt");
  Fun.protect
    ~finally:(fun () -> rm root)
    (fun () ->
      Alcotest.(check (list string))
        "only real .ml files survive" [ "a.ml"; "b.ml" ]
        (Tool_common.ml_files [ root ]
        |> List.map Filename.basename
        |> List.sort compare))

let walk_missing_dir_is_empty () =
  Alcotest.(check (list string))
    "nonexistent directory yields nothing" []
    (Tool_common.ml_files [ "/nonexistent/dk_shard_test" ])

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
  Alcotest.run "dk-shard"
    [
      ("bad fixtures (exact flag match)", corpus_bad);
      ("good fixtures (zero findings)", corpus_good);
      ( "call graph",
        [
          Alcotest.test_case "all three rule families covered" `Quick
            all_rule_families_covered;
          Alcotest.test_case "two-hop chain at entry" `Quick
            two_hop_chain_reported_at_entry;
          Alcotest.test_case "closure capture propagates" `Quick
            closure_capture_propagates;
          Alcotest.test_case "module alias resolved" `Quick
            module_alias_resolved;
          Alcotest.test_case "unknown call taints quietly" `Quick
            unknown_call_taints_but_stays_quiet;
          Alcotest.test_case "inventory classifies" `Quick inventory_classifies;
          Alcotest.test_case "itbl global is a hashtbl" `Quick
            itbl_global_is_hashtbl;
          Alcotest.test_case "tooling classified and exempt" `Quick
            tooling_classified_and_exempt;
          Alcotest.test_case "parse error reported" `Quick parse_error_reported;
          Alcotest.test_case "scan_dirs walks fixtures" `Quick
            scan_dirs_walks_fixtures;
        ] );
      ( "shared plumbing",
        [
          Alcotest.test_case "walk skips _build and dot dirs" `Quick
            walk_skips_build_and_dot_dirs;
          Alcotest.test_case "missing dir yields nothing" `Quick
            walk_missing_dir_is_empty;
        ] );
    ]
