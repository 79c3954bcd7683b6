(* dk-hot driver.

   Default mode mirrors dk-lint/dk-verify/dk-shard: scan, subtract the
   allowlist, print findings, exit nonzero on findings or stale
   allowlist entries. [--inventory] instead prints the hot-root
   inventory (a table and a summary line, or JSON with [--json]) and
   exits 0. *)

let inventory ~json dirs =
  let prog, files = Hot_engine.analyze_dirs dirs in
  let inv = Hot_engine.inventory prog in
  if json then print_string (Hot_engine.inventory_json inv)
  else begin
    print_string (Hot_engine.inventory_table inv);
    let fs = Hot_engine.findings prog in
    let count rule =
      List.length (List.filter (fun f -> f.Tool_common.rule = rule) fs)
    in
    Printf.printf
      "\n%d source file(s), %d hot root(s); raw findings: %d hot-alloc, %d \
       hot-complexity, %d hot-poly, %d hot-annotation\n\
       (`dune build @hot` applies tools/hot/allowlist.txt and gates CI)\n"
      files (List.length inv) (count "hot-alloc") (count "hot-complexity")
      (count "hot-poly") (count "hot-annotation")
  end

let () =
  Tool_common.run_driver ~tool:"dk-hot"
    ~usage:
      "dk_hot [--root DIR] [--allowlist FILE] [--json] [--inventory] [DIR ...]"
    ~default_allowlist:"tools/hot/allowlist.txt" ~default_dirs:[ "lib" ]
    ~inventory ~scan:Hot_engine.scan_dirs ()
