(** Recursive-descent parser for the cobegin language (grammar in the
    implementation header and docs/LANGUAGE.md).  Statement labels are
    allocated densely from 1 in parse order.  Calls are statements, never
    sub-expressions — one statement is one atomic action. *)

exception Error of string * Lexer.pos

val parse_string : string -> Ast.program
(** @raise Error with a source position on syntax errors. *)

val pp_error : Format.formatter -> string * Lexer.pos -> unit
