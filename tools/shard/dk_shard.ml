(* dk-shard driver.

   Default mode mirrors dk-lint/dk-verify: scan, subtract the
   allowlist, print findings, exit nonzero on findings or stale
   allowlist entries. [--inventory] instead prints the shared-state
   inventory (a table and a summary line, or JSON with [--json]) and
   exits 0 — that output is the contract DESIGN.md's table mirrors. *)

let inventory ~json dirs =
  let prog, files = Shard_engine.analyze_dirs dirs in
  let inv = Shard_engine.inventory prog in
  if json then print_string (Shard_engine.inventory_json inv)
  else begin
    print_string (Shard_engine.inventory_table inv);
    let unclassified =
      List.length
        (List.filter
           (fun g -> g.Shard_engine.g_class = Shard_engine.Unclassified)
           inv)
    in
    Printf.printf
      "\n%d source file(s), %d module-level global(s), %d unclassified, %d \
       raw finding(s)\n\
       (`dune build @shard` applies tools/shard/allowlist.txt and gates CI)\n"
      files (List.length inv) unclassified
      (List.length (Shard_engine.findings prog))
  end

let () =
  Tool_common.run_driver ~tool:"dk-shard"
    ~usage:
      "dk_shard [--root DIR] [--allowlist FILE] [--json] [--inventory] [DIR \
       ...]"
    ~default_allowlist:"tools/shard/allowlist.txt" ~default_dirs:[ "lib" ]
    ~inventory ~scan:Shard_engine.scan_dirs ()
