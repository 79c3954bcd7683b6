(** dk-lint rule engine.

    Scans OCaml sources (comments/strings stripped, then tokenized) for
    project-specific correctness rules:

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

type finding = Tool_common.finding = {
  path : string;
  line : int;
  rule : string;
  message : string;
}

val compare_finding : finding -> finding -> int

val pp_finding : finding -> string
(** ["path:line: [rule] message"]. *)

val scan_source : path:string -> string -> finding list
(** Content rules only (no filesystem access); [path] selects which
    rules apply and appears in diagnostics. *)

val scan_dirs : string list -> finding list * int
(** Walk the given directories, scan every [.ml], and check [.mli]
    presence for [lib/]. Returns sorted findings and the number of
    sources scanned. *)

type allow_entry = Tool_common.allow_entry = {
  a_rule : string;
  a_path : string;
  mutable used : bool;
}

val load_allowlist : string -> allow_entry list
(** Shared with dk-verify and dk-shard via {!Tool_common}: empty when
    the file does not exist; malformed lines are reported on stderr and
    skipped. *)

val apply_allowlist :
  allow_entry list -> finding list -> finding list * allow_entry list
(** Returns the findings not covered by the allowlist, plus the unused
    (stale) allowlist entries. *)
