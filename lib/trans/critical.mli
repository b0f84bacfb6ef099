(** Critical references (paper Definition 4): reads of variables another
    thread may write, and writes to variables another thread may read or
    write.  Approximated syntactically: for every cobegin and every pair
    of branches, the free names accessed by both with a write on at
    least one side conflict; heap accesses conflict through a single
    memory token; calls contribute their transitive memory effects
    ({!Access.summary}); an address-taken name conflicts with the other
    branch's pointer accesses. *)

open Cobegin_lang

type conflicts = {
  names : Ast.StringSet.t;  (** names with a cross-thread conflict *)
  mem : bool;  (** pointer/heap accesses conflict across threads *)
}

val no_conflicts : conflicts

val summary_conflicts :
  addr_taken:Ast.StringSet.t -> Access.summary -> Access.summary -> conflicts
(** The conflicts between two branch summaries: a name one side writes
    and the other reads or writes; memory when one side writes through
    a pointer and the other accesses memory; and, against the
    [addr_taken] names, a pointer write and a name the other side reads
    or writes, or a pointer read and a name it writes — such a name
    conflicts, and so does memory. *)

val union_conflicts : conflicts -> conflicts -> conflicts

val of_program : Ast.program -> conflicts
(** All cross-branch conflicts of the program. *)

val expr_critical : conflicts -> Ast.expr -> int
(** Number of critical references in an expression. *)

val stmt_critical : conflicts -> Ast.stmt -> int
(** Critical references of one {e simple} statement (skip, declaration,
    assignment, assert — the kinds virtual coarsening groups).
    @raise Invalid_argument on other statement kinds. *)

val pp : Format.formatter -> conflicts -> unit
