(** dk-lint rule engine.

    Scans OCaml sources (comments and literals blanked by the compiler's
    lexer, then tokenized) for project-specific correctness rules:

    - [missing-mli]: every [.ml] under [lib/] has a matching [.mli].
    - [unsafe-op]: no [Obj.magic] / [Bytes.unsafe_*] / [String.unsafe_*]
      in fast-path modules ([lib/mem], [lib/core], [lib/net],
      [lib/device] — descriptor rings are fast-path too).
    - [poly-compare]: no polymorphic [=]/[<>]/[compare] applied to
      buffer/sga-named values in fast-path modules (heuristic: fires
      next to identifiers named [buf]/[sga]/[*_buf]/[*_sga]/...).
    - [print-in-lib]: no [Printf.printf]-family calls in [lib/];
      diagnostics go through [Dk_obs.Flight].
    - [catch-all-exn]: no [try ... with _ ->] handlers.
    - [exit-outside-bin]: no [exit] outside [bin/].

    False positives are suppressed through the allowlist, one
    [rule path] pair per line. *)

val scan_source : path:string -> string -> Tool_common.finding list
(** Content rules only (no filesystem access); [path] selects which
    rules apply and appears in diagnostics. *)

val check : Tool_common.source -> Tool_common.finding list
(** [scan_source] of the source's text, plus [missing-mli] (the one
    rule that looks at the file system) for a source under [lib/]. *)
