(** Shared plumbing for the dk-* build-time source tools (dk-lint,
    dk-verify, dk-shard): the finding type, allowlist semantics,
    defensive directory walking, and the common driver main loop.

    The allowlist contract lives here so the three tools cannot drift:
    one [rule path] pair per line suppresses every finding of that rule
    in that file, and an entry that no longer matches anything is
    reported as stale and fails the run — the allowlist can only
    shrink. *)

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

val read_file : string -> string

val walk : string -> string list -> string list
(** [walk dir acc] collects every file under [dir], skipping any
    directory whose name starts with ['.'] or ['_'] (a stray local
    [_build/], [_opam/] or [.git/] must never inject phantom findings)
    and any dotfile. Nonexistent directories yield [acc] unchanged. *)

val ml_files : string list -> string list
(** Walk the given directories and return the normalized, sorted,
    deduplicated [.ml] paths. *)

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

val findings_json :
  tool:string ->
  files:int ->
  kept:finding list ->
  stale:allow_entry list ->
  allowlisted:int ->
  string
(** The machine-readable run report every driver's [--json] mode
    emits: tool name, file count, post-allowlist findings, stale
    allowlist entries — one schema for all four tools. *)

val run_driver :
  tool:string ->
  usage:string ->
  default_allowlist:string ->
  default_dirs:string list ->
  ?inventory:(json:bool -> string list -> unit) ->
  scan:(string list -> finding list * int) ->
  unit ->
  unit
(** The common driver: parse [--root]/[--allowlist]/[--json]/DIR
    arguments (refusing directories that do not exist), run [scan],
    subtract the allowlist, print findings and stale entries (as text,
    or as one {!findings_json} report under [--json]), and exit
    nonzero on either. A tool that passes [inventory] also accepts
    [--inventory]: the driver then calls [inventory ~json dirs] instead
    of scanning, and exits 0. *)
