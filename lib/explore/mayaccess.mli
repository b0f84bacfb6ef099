(** May-access summaries of whole process continuations, the soundness
    ingredient of the stubborn-set reduction: Algorithm 1 compares each
    process's next-action read/write sets against everything the other
    processes may ever do.

    Summaries resolve variable names against the environment in force at
    each continuation frame (environments are stored in the frames, so
    resolution is exact per frame); unresolvable names denote locations
    that do not exist yet and cannot conflict.  Pointer accesses are
    covered by a memory token concretizing to every heap cell and every
    address-taken variable. *)

open Cobegin_semantics

type t = {
  freads : Value.LocSet.t;  (** locations possibly read, ever *)
  fwrites : Value.LocSet.t;  (** locations possibly written, ever *)
  mem_read : bool;  (** may read through a pointer *)
  mem_write : bool;  (** may write through a pointer, or free *)
}

val empty : t

type ctx
(** Per-exploration context: transitive procedure effect summaries and
    the memo of {!of_process}.  Build one per exploration: the memo
    identifies processes by {!Proc.equal}, which identifies statements
    by label, so it must not outlive its program. *)

val make_ctx : Cobegin_lang.Ast.program -> ctx

val of_process : ctx -> Proc.t -> t
(** Everything the process may access during the rest of its life.
    Computed once per distinct process (by {!Proc.hash} and
    {!Proc.equal}) and memoized in the context. *)

val conflicts_footprint : Store.t -> Step.footprint -> t -> bool
(** Does a concrete next-action footprint conflict with a future
    summary?  The store supplies the memory-coverage test. *)

val pp : Format.formatter -> t -> unit
