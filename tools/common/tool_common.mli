(** Shared plumbing for the build-time source rules (dk-lint, dk-verify,
    dk-shard, dk-hot): the finding type, allowlist semantics, defensive
    directory walking, and the front end that reads and parses each
    source once for all four rule families.

    The allowlist contract lives here so the rule families cannot
    drift: one [rule path] pair per line suppresses every finding of
    that rule in that file, and an entry that no longer matches
    anything is reported as stale and fails the run — the allowlist can
    only shrink. *)

type finding = { path : string; line : int; rule : string; message : string }

val compare_finding : finding -> finding -> int
(** Order by path, then line, then rule (message excluded, so
    [List.sort_uniq compare_finding] deduplicates same-site findings). *)

val pp_finding : finding -> string
(** ["path:line: [rule] message"]. *)

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool

val normalize : string -> string
(** Backslashes to slashes, leading ["./"] stripped — allowlist paths
    and scanned paths must compare equal however they were spelled. *)

val ml_files : string list -> string list
(** The normalized, sorted, deduplicated [.ml] paths under the given
    directories. A directory whose name starts with ['.'] or ['_'] is
    skipped (a stray local [_build/], [_opam/] or [.git/] must never
    inject phantom findings), and so is any dotfile. A nonexistent
    directory yields nothing. *)

(** {2 The front end} *)

type source = {
  file : string;  (** the normalized path *)
  text : string;
  ast : (Parsetree.structure, int) result;
      (** [Error line] when the text does not parse as OCaml: the line
          the parser stopped at, or 1 when the failure has no location
          (a lexer error, say). *)
}

val parse : path:string -> string -> source
(** The tools' one call of the OCaml parser. *)

val load : string list -> source list
(** Every [.ml] under the given directories ({!ml_files}), read and
    parsed once. *)

(** {2 AST helpers shared by the rule engines} *)

val line_of : Location.t -> int

val last_two : Longident.t -> (string * string) option
(** The last two components of a long identifier: [Some (m, f)] for
    [...m.f], [Some ("", f)] for a bare [f]. *)

val strip : Parsetree.expression -> Parsetree.expression
(** Peel type constraints and local opens. *)

val strip_pat : Parsetree.pattern -> Parsetree.pattern

(** {2 Allowlist} *)

type allow_entry = { a_rule : string; a_path : string; mutable used : bool }

val load_allowlist : string -> allow_entry list
(** Empty when the file does not exist; malformed lines are reported on
    stderr and skipped. *)

val apply_allowlist :
  allow_entry list -> finding list -> finding list * allow_entry list
(** Returns the findings not covered by the allowlist, plus the unused
    (stale) allowlist entries. *)

val json_escape : string -> string
(** Escape for inclusion inside a JSON string literal. *)
