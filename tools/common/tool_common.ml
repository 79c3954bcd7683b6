(* Shared plumbing for the build-time source rules (dk-lint, dk-verify,
   dk-shard, dk-hot): the finding type, the allowlist loader and
   stale-entry semantics, defensive directory walking, and the front
   end that parses each source once. One copy, four rule families —
   the allowlist contract in particular ("stale entries fail, the list
   can only shrink") must not drift between them. *)

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

(* ---------------- the front end ---------------- *)

type source = {
  file : string;
  text : string;
  ast : (Parsetree.structure, int) result;
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let parse ~path text =
  let file = normalize path in
  let ast =
    let lexbuf = Lexing.from_string text in
    Lexing.set_filename lexbuf file;
    match Parse.implementation lexbuf with
    | str -> Ok str
    | exception Syntaxerr.Error err ->
        Error (line_of (Syntaxerr.location_of_error err))
    | exception _ -> Error 1
  in
  { file; text; ast }

let load dirs = List.map (fun f -> parse ~path:f (read_file f)) (ml_files dirs)

(* ---------------- AST helpers ---------------- *)

let last_two (l : Longident.t) =
  let rec components acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> components (s :: acc) l
    | Longident.Lapply (_, l) -> components acc l
  in
  match List.rev (components [] l) with
  | f :: m :: _ -> Some (m, f)
  | [ f ] -> Some ("", f)
  | [] -> None

let rec strip (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> strip e
  | Pexp_open (_, e) -> strip e
  | _ -> e

let rec strip_pat (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_constraint (p, _) | Ppat_open (_, p) -> strip_pat p
  | _ -> p

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
