(* dk-analyze: the one driver of the build-time source rules.

   It parses every .ml under the given directories (lib/, bench/ and
   examples/ by default) once and runs the four rule families over
   that one parse: dk-lint's token rules and dk-verify's typestate pass
   on every file, dk-shard's and dk-hot's interprocedural passes on the
   files under lib/, the datapath they guard. A finding the allowlist
   does not cover, or an allowlist entry that matches nothing, fails
   the run (exit 1); a directory that does not exist exits 2.
   [--inventory [--json]] prints dk-shard's shared-state table and
   dk-hot's hot-root table for lib/ instead, and exits 0. *)

let usage =
  "usage: dk_analyze [--allowlist FILE] [DIR ...]\n\
  \       dk_analyze --inventory [--json]"

let default_dirs = [ "lib"; "bench"; "examples" ]
let default_allowlist = "tools/analyze/allowlist.txt"

let scan ~allowlist dirs =
  List.iter
    (fun d ->
      if not (Sys.file_exists d && Sys.is_directory d) then begin
        Printf.eprintf "dk-analyze: no such directory: %s\n" d;
        exit 2
      end)
    dirs;
  let sources = Tool_common.load dirs in
  let lib =
    List.filter
      (fun (s : Tool_common.source) ->
        Tool_common.starts_with ~prefix:"lib/" s.file)
      sources
  in
  let findings =
    List.concat_map
      (fun s -> Lint_engine.check s @ Verify_engine.check s)
      sources
    @ Shard_engine.findings (Shard_engine.analyze_files lib)
    @ Hot_engine.findings (Hot_engine.analyze_files lib)
    |> List.stable_sort Tool_common.compare_finding
  in
  let allow = Tool_common.load_allowlist allowlist in
  let kept, stale = Tool_common.apply_allowlist allow findings in
  List.iter (fun f -> print_endline (Tool_common.pp_finding f)) kept;
  List.iter
    (fun (e : Tool_common.allow_entry) ->
      Printf.eprintf
        "dk-analyze: stale allowlist entry (no longer matches): %s %s\n"
        e.a_rule e.a_path)
    stale;
  Printf.printf
    "dk-analyze: %d source file(s), %d under lib/; %d finding(s), %d \
     allowlisted\n"
    (List.length sources) (List.length lib) (List.length kept)
    (List.length allow - List.length stale);
  if kept <> [] || stale <> [] then exit 1

let inventory ~json =
  let lib = Tool_common.load [ "lib" ] in
  let shard_prog = Shard_engine.analyze_files lib in
  let hot_prog = Hot_engine.analyze_files lib in
  let globals = Shard_engine.inventory shard_prog in
  let roots = Hot_engine.inventory hot_prog in
  if json then
    Printf.printf "{\n  \"inventory\": %s,\n  \"hot_roots\": %s\n}\n"
      (Shard_engine.inventory_json globals)
      (Hot_engine.inventory_json roots)
  else begin
    let unclassified =
      List.filter
        (fun g -> g.Shard_engine.g_class = Shard_engine.Unclassified)
        globals
    in
    let hot_findings = Hot_engine.findings hot_prog in
    let count rule =
      List.length
        (List.filter (fun f -> f.Tool_common.rule = rule) hot_findings)
    in
    print_string (Shard_engine.inventory_table globals);
    Printf.printf
      "\n%d source file(s), %d module-level global(s), %d unclassified, %d \
       raw finding(s)\n\n"
      (List.length lib) (List.length globals) (List.length unclassified)
      (List.length (Shard_engine.findings shard_prog));
    print_string (Hot_engine.inventory_table roots);
    Printf.printf
      "\n%d source file(s), %d hot root(s); raw findings: %d hot-alloc, %d \
       hot-complexity, %d hot-poly, %d hot-annotation\n\
       (`dune build @analyze` applies %s and gates CI)\n"
      (List.length lib) (List.length roots) (count "hot-alloc")
      (count "hot-complexity") (count "hot-poly") (count "hot-annotation")
      default_allowlist
  end

let () =
  let is_flag a = String.length a > 0 && a.[0] = '-' in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--inventory" ] -> inventory ~json:false
  | [ "--inventory"; "--json" ] -> inventory ~json:true
  | "--allowlist" :: allowlist :: dirs when not (List.exists is_flag dirs) ->
      scan ~allowlist (if dirs = [] then default_dirs else dirs)
  | dirs when not (List.exists is_flag dirs) ->
      scan ~allowlist:default_allowlist
        (if dirs = [] then default_dirs else dirs)
  | _ ->
      prerr_endline usage;
      exit 2
