(** Minimal JSON reader for the serve protocol.

    The framework emits JSON from many places but the daemon's
    newline-delimited request protocol is the first thing that has to
    {e read} any, and the toolchain ships no JSON library — so: a
    small, strict recursive-descent parser.  Full value grammar,
    standard string escapes (including [\uXXXX] with surrogate pairs,
    decoded to UTF-8), no extensions (no comments, no trailing
    commas).  Numbers without fraction/exponent that fit an OCaml
    [int] parse as {!Int}; all others as {!Float}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in source order *)

val parse : string -> (t, string) result
(** Whole-input parse: trailing non-whitespace is an error.  The error
    string carries the byte offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and absent fields. *)

val to_string : t -> string option
val to_int : t -> int option
