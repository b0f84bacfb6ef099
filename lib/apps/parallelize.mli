(** Parallelization support (paper section 7, Example 15 / Figure 8):
    Shasha–Snir [SS88] delay computation extended to procedure calls.

    For a program whose entry contains one cobegin of straight-line
    segments, accesses performed inside callees are attributed back to
    the call statements through their procedure strings; the
    cross-segment conflict graph then yields (a) the conflicting pairs,
    (b) the program arcs on critical cycles — the orders that must be
    kept as delays — and (c) the independent cross-segment pairs,
    candidates for further parallelization. *)

open Cobegin_lang
open Cobegin_analysis

type segment = { seg_index : int; stmts : int list (** labels, in order *) }
type arc = { from_stmt : int; to_stmt : int }

type report = {
  segments : segment list;
  conflicts : (int * int) list;  (** cross-segment conflicting pairs *)
  intra_conflicts : (int * int) list;
      (** data-dependent pairs within one segment: forbid splitting *)
  delays : arc list;  (** program arcs that must be enforced *)
  reorderable : arc list;  (** program arcs free to be relaxed *)
  parallelizable : (int * int) list;  (** independent cross-segment pairs *)
}

val segments_of : Ast.program -> segment list
(** The segments of the entry procedure's first cobegin (top-level
    statements of each branch). *)

val program_arcs : segment list -> arc list

val owner_map : Ast.program -> segment list -> (int, int) Hashtbl.t
(** Every descendant label of a segment statement, mapped to that
    statement's label. *)

val attribute :
  owners:(int, int) Hashtbl.t -> segment list -> Event.access -> int option
(** The segment statement responsible for an access: the owner of its
    label (covering nested atomics/conditionals), else the owner of a
    call frame in its procedure string. *)

val segment_conflicts :
  ?owners:(int, int) Hashtbl.t ->
  ?same_segment:bool ->
  Ast.program ->
  segment list ->
  Event.log ->
  (int * int) list
(** With [same_segment] the pairs within one segment (sequential data
    dependences) are reported instead of the cross-segment ones. *)

val critical_cycle_arcs : segment list -> (int * int) list -> arc list
(** Program arcs lying on mixed cycles (≥ 2 conflict edges, ≥ 1 program
    arc) — the [SS88] delays. *)

val analyze : Ast.program -> Event.log -> report

val split_segment :
  ?intra:(int * int) list ->
  Access.t ->
  arc list ->
  Ast.stmt list ->
  Ast.stmt list list
(** Maximal runs not crossed by a delay arc, an intra-segment dependence
    or a scope dependence (a name a later run uses, by
    {!Access.summary}, that an earlier run declares). *)

val apply : Ast.program -> report -> Ast.program
(** Rewrite the entry cobegin so every delay-free run becomes its own
    branch — the "further parallelization" of Example 15.  Statements
    (and labels) are reused, so final stores of the original and the
    transformed program are directly comparable; the new branch blocks
    are labelled above the program's largest label, so labels stay
    unique and equal arguments give equal programs. *)

val pp_pair : Format.formatter -> int * int -> unit
val pp_arc : Format.formatter -> arc -> unit
val pp_report : Format.formatter -> report -> unit
