(** Minimal JSON reader for the repository's own outputs: the
    [BENCH_eN.json] bench files and [demi stats --json] lines. There is
    no JSON library in the switch, so [bench_diff] and the obs tests
    share this one.

    Strings decode the one-character backslash escapes; a [\u] escape
    (four hex digits) decodes to a single ['?']. Numbers are read with
    [float_of_string]. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad of string

val parse : string -> t
(** One JSON value, optionally surrounded by whitespace.
    @raise Bad on malformed input, including bytes after the value. *)

val member : string -> t -> t option
(** [member k v] is field [k] of object [v]; [None] if [v] is not an
    object or has no such field. *)
