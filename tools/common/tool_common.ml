(* Shared plumbing for the dk-* source tools (dk-lint, dk-verify,
   dk-shard): the finding type, the allowlist loader and stale-entry
   semantics, defensive directory walking, and the common driver main
   loop. One copy, three tools — the allowlist contract in particular
   ("stale entries fail, the list can only shrink") must not drift
   between them. *)

type finding = { path : string; line : int; rule : string; message : string }

let compare_finding a b =
  match String.compare a.path b.path with
  | 0 -> (
      match compare a.line b.line with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
  | c -> c

let pp_finding f =
  Printf.sprintf "%s:%d: [%s] %s" f.path f.line f.rule f.message

(* ---------------- small string/path helpers ---------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- filesystem walking ---------------- *)

(* Skip every directory whose name starts with '.' or '_': a stray
   local _build/, _opam/ or .git/ must never inject phantom sources
   into a scan — scanners gate the build, so a phantom finding (or a
   phantom-clean pass over generated code) is a CI lie. Plain files
   keep their names; only directories are filtered. *)
let skip_dir_entry entry =
  entry = "" || entry.[0] = '.' || entry.[0] = '_'

let rec walk dir acc =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.fold_left
      (fun acc entry ->
        if entry = "" then acc
        else
          let path = Filename.concat dir entry in
          if Sys.is_directory path then
            if skip_dir_entry entry then acc else walk path acc
          else if entry.[0] = '.' then acc
          else path :: acc)
      acc (Sys.readdir dir)

let ml_files dirs =
  List.concat_map (fun d -> walk (normalize d) []) dirs
  |> List.map normalize
  |> List.sort_uniq String.compare
  |> List.filter (ends_with ~suffix:".ml")

(* ---------------- allowlist ---------------- *)

type allow_entry = { a_rule : string; a_path : string; mutable used : bool }

let load_allowlist path : allow_entry list =
  if not (Sys.file_exists path) then []
  else
    read_file path |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match
               String.split_on_char ' ' line
               |> List.filter (fun s -> s <> "")
             with
             | [ a_rule; a_path ] ->
                 Some { a_rule; a_path = normalize a_path; used = false }
             | _ ->
                 Printf.eprintf "allowlist: malformed line: %s\n" line;
                 None)

let apply_allowlist (allow : allow_entry list) (findings : finding list) :
    finding list * allow_entry list =
  let kept =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun e -> e.a_rule = f.rule && e.a_path = f.path)
            allow
        with
        | Some e ->
            e.used <- true;
            false
        | None -> true)
      findings
  in
  (kept, List.filter (fun e -> not e.used) allow)

(* ---------------- JSON ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Machine-readable run report, shared by every dk-* driver's [--json]
   mode: the same facts the text output prints, one schema for all
   four tools so CI consumers parse one format. *)
let findings_json ~tool ~files ~(kept : finding list)
    ~(stale : allow_entry list) ~allowlisted : string =
  let finding f =
    Printf.sprintf
      "    {\"path\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \
       \"%s\"}"
      (json_escape f.path) f.line (json_escape f.rule)
      (json_escape f.message)
  in
  let stale_entry e =
    Printf.sprintf "    {\"rule\": \"%s\", \"path\": \"%s\"}"
      (json_escape e.a_rule) (json_escape e.a_path)
  in
  Printf.sprintf
    "{\n\
    \  \"tool\": \"%s\",\n\
    \  \"files\": %d,\n\
    \  \"allowlisted\": %d,\n\
    \  \"findings\": [\n%s\n  ],\n\
    \  \"stale\": [\n%s\n  ]\n\
     }\n"
    (json_escape tool) files allowlisted
    (String.concat ",\n" (List.map finding kept))
    (String.concat ",\n" (List.map stale_entry stale))

(* ---------------- the shared driver main loop ---------------- *)

(* Every dk-* driver is the same program: parse --root/--allowlist/DIRs,
   refuse to scan a directory that does not exist (a typo must not
   silently scan nothing), run the tool's scanner, subtract the
   allowlist, print findings and stale entries, exit nonzero on either.
   A tool with an [inventory] accepts [--inventory], which prints that
   instead of scanning. *)
let run_driver ~tool ~usage ~default_allowlist ~default_dirs ?inventory
    ~(scan : string list -> finding list * int) () =
  let root = ref None in
  let allowlist = ref default_allowlist in
  let dirs = ref [] in
  let json = ref false in
  let inventory_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--root" :: d :: rest ->
        root := Some d;
        parse rest
    | "--allowlist" :: f :: rest ->
        allowlist := f;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--inventory" :: rest when Option.is_some inventory ->
        inventory_mode := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "%s: unknown option %s\nusage: %s\n" tool arg usage;
        exit 2
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !root with Some d -> Sys.chdir d | None -> ());
  let dirs = match List.rev !dirs with [] -> default_dirs | ds -> ds in
  List.iter
    (fun d ->
      if not (Sys.file_exists d && Sys.is_directory d) then begin
        Printf.eprintf "%s: no such directory: %s\n" tool d;
        exit 2
      end)
    dirs;
  match inventory with
  | Some print when !inventory_mode -> print ~json:!json dirs
  | Some _ | None ->
      let findings, scanned = scan dirs in
      let allow = load_allowlist !allowlist in
      let kept, stale = apply_allowlist allow findings in
      let allowlisted = List.length allow - List.length stale in
      if !json then
        print_string
          (findings_json ~tool ~files:scanned ~kept ~stale ~allowlisted)
      else begin
        List.iter (fun f -> print_endline (pp_finding f)) kept;
        List.iter
          (fun e ->
            Printf.eprintf
              "%s: stale allowlist entry (no longer matches): %s %s\n" tool
              e.a_rule e.a_path)
          stale;
        Printf.printf "%s: %d source file(s), %d finding(s), %d allowlisted\n"
          tool scanned (List.length kept) allowlisted
      end;
      if kept <> [] || stale <> [] then exit 1
