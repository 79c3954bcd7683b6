(* dk-lint: project-specific source rules for the Demikernel reproduction.

   The linter works on a token stream of code only (comments, string
   literals and char literals blanked out by the compiler's own lexer),
   so the rules below are heuristic but comment/string-safe. False
   positives are silenced through the checked-in allowlist rather than
   by weakening a rule. *)

open Tool_common

(* ---------------- path classification ---------------- *)

(* Fast-path modules: the zero-copy data path where a stray polymorphic
   compare or unsafe access defeats the safety argument of §4.5; the
   frame codecs in lib/wire/ parse every untrusted frame. The
   unsafe-op rule additionally covers lib/device/ — descriptor rings
   and DMA buffers are fast-path too — while poly-compare stays scoped
   to the buffer-heavy layers where its name heuristic is reliable. *)
let fast_path_dirs = [ "lib/mem/"; "lib/core/"; "lib/net/"; "lib/wire/" ]
let unsafe_op_dirs = "lib/device/" :: fast_path_dirs
let in_fast_path path = List.exists (fun d -> starts_with ~prefix:d path) fast_path_dirs
let in_unsafe_scope path = List.exists (fun d -> starts_with ~prefix:d path) unsafe_op_dirs
let in_lib path = starts_with ~prefix:"lib/" path

(* Fault-site discipline: every injected misbehaviour in the device
   layer must flow through the seeded Dk_fault hooks so that runs are
   replayable from (plan, seed) alone. Stdlib Random and wall-clock
   reads would make faults unreproducible. *)
let fault_site_dirs = [ "lib/device/"; "lib/fault/" ]
let in_fault_scope path =
  List.exists (fun d -> starts_with ~prefix:d path) fault_site_dirs

(* Offload-site discipline: the NIC's device-resident table is device
   state with a coherence protocol — reads answer rx frames on the
   device clock, writes must flow through the synchronous host→device
   control queue so an acknowledged SET/DEL can never be followed by a
   stale device GET. Only the device layer itself and the sanctioned
   kv control path in Demi (offload_insert/update/invalidate wrapping
   the Nic.ctrl functions) may touch it; anything else would bypass
   the ordering the no-stale tests assert. *)
let offload_sanctioned path =
  starts_with ~prefix:"lib/device/" path || path = "lib/core/demi.ml"

(* ---------------- code text ---------------- *)

(* The source with everything but code blanked: the compiler's lexer
   skips comments, and its string and char literal tokens are dropped.
   Newlines survive, so line numbers do, and adjacent code tokens stay
   adjacent, so the tokenizer below reads the code exactly as written.
   A lexer error ends the code text there (the file then fails to
   parse, which dk-verify reports). *)
let code_only (src : string) : string =
  let out =
    Bytes.of_string (String.map (fun c -> if c = '\n' then c else ' ') src)
  in
  let lexbuf = Lexing.from_string src in
  Lexer.init ();
  let rec copy () =
    match Lexer.token lexbuf with
    | Parser.EOF -> ()
    | Parser.STRING _ | Parser.CHAR _ -> copy ()
    | _ ->
        let start = Lexing.lexeme_start lexbuf in
        let len = Lexing.lexeme_end lexbuf - start in
        Bytes.blit_string src start out start len;
        copy ()
    | exception Lexer.Error _ -> ()
  in
  copy ();
  Bytes.to_string out

(* ---------------- tokenizer ---------------- *)

type token = { text : string; tline : int }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'

let is_sym_char c =
  String.contains "!$%&*+-./:<=>?@^|~" c

(* Qualified identifiers ([Bytes.unsafe_get], [t.field]) come out as a
   single dotted token; operators are maximal runs of symbol chars. *)
let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push text tline = toks := { text; tline } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i and l0 = !line in
      let stop = ref false in
      while not !stop && !i < n do
        if is_ident_char src.[!i] then incr i
        else if
          src.[!i] = '.' && !i + 1 < n && is_ident_start src.[!i + 1]
        then incr i
        else stop := true
      done;
      push (String.sub src start (!i - start)) l0
    end
    else if is_digit c then begin
      let start = !i and l0 = !line in
      while
        !i < n
        && (is_ident_char src.[!i] || src.[!i] = '.'
           || ((src.[!i] = '+' || src.[!i] = '-')
              && !i > start
              && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
      do
        incr i
      done;
      push (String.sub src start (!i - start)) l0
    end
    else if is_sym_char c then begin
      let start = !i and l0 = !line in
      while !i < n && is_sym_char src.[!i] do incr i done;
      push (String.sub src start (!i - start)) l0
    end
    else begin
      push (String.make 1 c) !line;
      incr i
    end
  done;
  List.rev !toks

(* ---------------- rules ---------------- *)

let unsafe_primitives =
  [
    "Obj.magic";
    "Bytes.unsafe_get";
    "Bytes.unsafe_set";
    "Bytes.unsafe_blit";
    "Bytes.unsafe_fill";
    "String.unsafe_get";
    "String.unsafe_set";
    "Array.unsafe_get";
    "Array.unsafe_set";
  ]

let print_primitives =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
  ]

(* Identifier naming convention for buffer/sga-typed values; the
   poly-compare rule only fires next to one of these. *)
let bufferish name =
  let last =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  last = "buf" || last = "buffer" || last = "sga"
  || ends_with ~suffix:"_buf" last
  || ends_with ~suffix:"_buffer" last
  || ends_with ~suffix:"_sga" last
  || starts_with ~prefix:"buf_" last
  || starts_with ~prefix:"sga_" last

(* Statistic-flavoured identifier segments: a [mutable … : int] field or
   [ref 0] whose name contains one of these is almost always an event
   counter, which belongs in Dk_obs.Metrics where `demi stats` and the
   bench dumps can see it. An object that needs its own count of a
   class-wide event holds a [Metrics.instance] of the class instrument;
   only per-object counts with no class instrument go in the
   allowlist. *)
let statsy_words =
  [
    "hits"; "misses"; "drops"; "dropped"; "errors"; "retransmits"; "acks";
    "wakeups"; "allocs"; "releases"; "redeems"; "completes"; "timeouts";
    "frames"; "bytes"; "sent"; "received"; "rejected"; "lost"; "delivered";
    "unrouted"; "filtered"; "mapped"; "copied"; "wasted"; "evicted";
    "failures"; "reads"; "writes"; "syscalls"; "retries"; "polls";
  ]

let statsy name =
  String.split_on_char '_' (String.lowercase_ascii name)
  |> List.exists (fun seg -> List.mem seg statsy_words)

let binding_starters = [ "let"; "and"; "method"; "val"; "external"; "type" ]
let record_contexts = [ ";"; "{"; "with"; "?" ]

(* Is the [=] at index [i] a binding rather than a comparison? Walk left
   over parameter-like tokens; a binding keyword (or record-field
   context) before anything else means binding. *)
let is_binding_eq (toks : token array) i =
  let passes t =
    t = "_" || t = "(" || t = ")" || t = "~" || t = "?" || t = ":" || t = ","
    || t = "[" || t = "]" || t = "*" || t = "." || t = "'"
    || (String.length t > 0 && is_ident_start t.[0])
  in
  let rec walk j steps =
    if j < 0 || steps > 40 then true (* give up quietly: assume binding *)
    else
      let t = toks.(j).text in
      if List.mem t binding_starters then true
      else if List.mem t record_contexts then true
      else if passes t then walk (j - 1) (steps + 1)
      else false
  in
  walk (i - 1) 0

let scan_tokens ~path (toks : token array) : finding list =
  let findings = ref [] in
  let add line rule message = findings := { path; line; rule; message } :: !findings in
  let fast = in_fast_path path in
  let unsafe_scope = in_unsafe_scope path in
  let fault_scope = in_fault_scope path in
  let lib = in_lib path in
  let bin = starts_with ~prefix:"bin/" path in
  let ntok = Array.length toks in
  let text i = if i >= 0 && i < ntok then toks.(i).text else "" in
  (* try/match tracking for the catch-all rule *)
  let stack = ref [] in
  for i = 0 to ntok - 1 do
    let tok = toks.(i).text and line = toks.(i).tline in
    (* unsafe primitives in fast-path modules *)
    if unsafe_scope && List.mem tok unsafe_primitives then
      add line "unsafe-op"
        (Printf.sprintf
           "%s in a fast-path module: bounds-checked access is the only \
            memory safety the data path has"
           tok);
    (* non-deterministic fault sources in the device/fault layer *)
    if
      fault_scope
      && (starts_with ~prefix:"Random." tok
         || tok = "Unix.gettimeofday" || tok = "Unix.time" || tok = "Sys.time")
    then
      add line "fault-site"
        (Printf.sprintf
           "%s in the device/fault layer: injected misbehaviour must come \
            from the seeded Dk_fault hooks (fire/mangle/extra_delay) so \
            every fault replays from (plan, seed); never ad-hoc randomness \
            or wall-clock"
           tok);
    (* doorbell writes outside the device-layer submission stage *)
    if
      lib
      && (not (starts_with ~prefix:"lib/sim/" path))
      && path <> "lib/device/doorbell.ml"
      && (tok = "pcie_doorbell" || ends_with ~suffix:".pcie_doorbell" tok)
    then
      add line "doorbell-site"
        "pcie_doorbell charged outside Dk_device.Doorbell: every tx doorbell \
         must go through the device-layer submission stage (Doorbell.submit / \
         Doorbell.group) so coalescing windows and the *.doorbells counters \
         see it";
    (* device-resident table access outside the device layer / Demi
       control path *)
    if
      (not (offload_sanctioned path))
      && (starts_with ~prefix:"Dk_device.Table." tok
         || starts_with ~prefix:"Table." tok
         || starts_with ~prefix:"Dk_device.Nic.ctrl_" tok
         || starts_with ~prefix:"Nic.ctrl_" tok)
    then
      add line "offload-site"
        (Printf.sprintf
           "%s outside lib/device and the Demi kv control path: the \
            device-resident table is coherent only through the synchronous \
            ctrl queue (Demi.offload_insert/update/invalidate) — direct \
            access can serve stale device reads after an acknowledged write"
           tok);
    (* printing from library code *)
    if lib && List.mem tok print_primitives then
      add line "print-in-lib"
        (Printf.sprintf "%s in lib/: route diagnostics through Dk_obs.Flight" tok);
    (* exit outside bin/ *)
    if (not bin) && (tok = "exit" || tok = "Stdlib.exit") then
      add line "exit-outside-bin"
        "exit outside bin/: libraries, benches and examples must return, not exit";
    (* ad-hoc statistics counters in lib/ outside lib/obs/ *)
    if lib && not (starts_with ~prefix:"lib/obs/" path) then begin
      if
        tok = "mutable" && statsy (text (i + 1)) && text (i + 2) = ":"
        && (text (i + 3) = "int" || text (i + 3) = "int64" || text (i + 3) = "Int64.t")
      then
        add line "adhoc-counter"
          (Printf.sprintf
             "mutable counter %s outside lib/obs: statistics belong in \
              Dk_obs.Metrics so `demi stats` and the bench dumps see them; \
              a per-object count is a Metrics.instance of the class \
              instrument, not an allowlisted field"
             (text (i + 1)));
      if
        tok = "let" && statsy (text (i + 1)) && text (i + 2) = "="
        && text (i + 3) = "ref"
        && (text (i + 4) = "0" || text (i + 4) = "0L")
      then
        add line "adhoc-counter"
          (Printf.sprintf
             "ref-cell counter %s outside lib/obs: statistics belong in \
              Dk_obs.Metrics so `demi stats` and the bench dumps see them"
             (text (i + 1)))
    end;
    (* polymorphic comparison on buffers/sgas in fast-path modules *)
    if fast then begin
      if tok = "Stdlib.compare" then
        add line "poly-compare"
          "Stdlib.compare in a fast-path module compares buffer structure, \
           not contents; use Sga.equal or compare lengths/bytes explicitly";
      if tok = "compare" && (bufferish (text (i + 1)) || bufferish (text (i + 2)))
      then
        add line "poly-compare"
          "polymorphic compare on a buffer/sga value; use Sga.equal or an \
           explicit field comparison";
      if tok = "=" || tok = "<>" || tok = "==" || tok = "!=" then
        if bufferish (text (i - 1)) || bufferish (text (i + 1)) then
          if tok <> "=" || not (is_binding_eq toks i) then
            add line "poly-compare"
              (Printf.sprintf
                 "polymorphic %s on a buffer/sga value (compares the view \
                  record, not the payload); use Sga.equal or explicit fields"
                 tok)
    end;
    (* catch-all exception handlers *)
    (match tok with
    | "try" -> stack := `Try :: !stack
    | "match" -> stack := `Match :: !stack
    | "with" ->
        let opener =
          match !stack with
          | top :: rest ->
              stack := rest;
              Some top
          | [] -> None
        in
        let j = if text (i + 1) = "|" then i + 2 else i + 1 in
        let wildcard_arm = text j = "_" && text (j + 1) = "->" in
        (* [None] covers handlers whose try was consumed by an earlier
           record-update [with]; a wildcard arm directly after [with]
           cannot be a record update or a match, so flag it too. *)
        (match opener with
        | Some `Try | None ->
            if wildcard_arm then
              add toks.(j).tline "catch-all-exn"
                "catch-all `with _ ->` swallows every exception (including \
                 Out_of_memory and Assert_failure); match specific \
                 exceptions or re-raise"
        | Some `Match -> ())
    | _ -> ())
  done;
  List.rev !findings

let scan_source ~path (src : string) : finding list =
  let path = normalize path in
  scan_tokens ~path (Array.of_list (tokenize (code_only src)))

let check (src : source) : finding list =
  let missing_mli =
    if in_lib src.file && not (Sys.file_exists (src.file ^ "i")) then
      [
        {
          path = src.file;
          line = 1;
          rule = "missing-mli";
          message =
            "every .ml under lib/ needs a matching .mli: interfaces are \
             where this repo's lifetime/ownership contracts live";
        };
      ]
    else []
  in
  missing_mli @ scan_source ~path:src.file src.text
