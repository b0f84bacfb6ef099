(** Virtual coarsening (paper Observation 5): "atomic actions of a
    thread can be combined if they contain at most one critical
    reference."  Rewrites every block, greedily grouping maximal runs of
    simple statements whose total critical-reference count is at most
    one into a single [atomic] block — executed in one transition by the
    interleaving semantics.  Coarsening preserves the reachable final
    stores (a qcheck property of the suite). *)

open Cobegin_lang

val is_simple : Ast.stmt -> bool
(** May the statement participate in a coarsened run? *)

val program : Ast.program -> Ast.program
(** Coarsen a whole program; the conflict report is computed once from
    the input.  Original statements keep their labels and the atomic
    blocks built are numbered above the largest, so the result's labels
    are unique and depend on the input alone. *)
