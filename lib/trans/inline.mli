(** Procedure inlining.  The paper notes (footnote 4) that its analyses
    behave "like taking in-line procedure expansion first and then
    analyzing the results as a whole" — this transform makes that
    literal.  A call is expanded when the callee is statically known,
    non-recursive, and returns only in tail position; locals and
    parameters are freshened against capture. *)

open Cobegin_lang

val recursive : Ast.program -> string -> bool
(** Is the procedure (transitively) recursive? *)

val program : ?depth:int -> Ast.program -> Ast.program
(** Inline up to [depth] rounds (default 3) and relabel the result so
    statement labels stay unique.  Fresh names are numbered per call, so
    the result depends on the input alone. *)
