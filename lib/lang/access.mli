(** The syntactic access model every static analysis reads: the call
    graph, each procedure's memory effects over it, the footprint of one
    atomic action and the summary of everything a statement may do.
    Accesses are variable {e names} plus a memory token ("may read /
    write through a pointer"); the stubborn reduction resolves names
    against process environments to locations.  A callee touches only
    its own fresh locals and memory through pointers, so a procedure's
    externally visible effects are just the two memory flags. *)

open Ast

type summary = {
  rvars : StringSet.t;  (** names possibly read *)
  wvars : StringSet.t;  (** names possibly written *)
  mem_read : bool;  (** may read through a pointer *)
  mem_write : bool;  (** may write through a pointer, or free *)
}

val empty : summary
val union : summary -> summary -> summary
val writes_of_lvalue : lvalue -> summary

val action : stmt -> summary
(** The names the one atomic action of [s] reads and writes, plus the
    memory token.  If/while conditions are charged to the branching
    statement and a whole [atomic] block is one action; a call reads
    its callee expression and its arguments and writes its
    destination.  Sub-statements are not descended into. *)

val is_sync : stmt -> bool
(** Await, lock, unlock and fence: synchronization, which contends by
    design and is no race candidate. *)

type t
(** A program's call graph with each procedure's effects. *)

val of_program : program -> t

val callees : t -> stmt -> StringSet.t
(** The procedures a call statement may invoke (empty for any other
    statement).  [f(...)] invokes exactly [proc f] when [f] names a
    procedure and no declaration or parameter anywhere in the program
    uses that name; otherwise it may invoke any procedure. *)

val proc_callees : t -> string -> StringSet.t
(** Union of {!callees} over the procedure's body. *)

val reach_procs : (string -> StringSet.t) -> StringSet.t -> StringSet.t
(** Transitive closure of a callee relation from a seed set, the seed
    included. *)

val effects : t -> string -> summary
(** The memory flags of everything the procedure, and every procedure it
    may reach, may do; no names.  Unknown names have no effects. *)

val summary : t -> stmt -> summary
(** Everything the subtree may do: {!action} over each of its actions,
    plus the {!effects} of every procedure each call may invoke.  Names
    a declaration inside the subtree binds are left out, because their
    cells are fresh; an [atomic] block scopes its own declarations. *)
