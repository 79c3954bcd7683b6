type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then raise (Bad "eof");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    let g = next () in
    if g <> c then raise (Bad (Printf.sprintf "expected %c, got %c" c g))
  in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          match next () with
          | ('"' | '\\' | '/') as c ->
              Buffer.add_char b c;
              go ()
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 'b' -> Buffer.add_char b '\b'; go ()
          | 'u' ->
              pos := !pos + 4;
              Buffer.add_char b '?';
              go ()
          | c -> raise (Bad (Printf.sprintf "escape %c" c)))
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      incr pos
    done;
    if !pos = start then raise (Bad "number");
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        expect '{';
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "in object: %c" c))
          in
          members []
    | Some '[' ->
        expect '[';
        skip_ws ();
        if peek () = Some ']' then (incr pos; Arr [])
        else
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "in array: %c" c))
          in
          elems []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> raise (Bad "empty")
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage");
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
