(** Process states: fork path, current environment, procedure string, a
    continuation stack of work items and — under relaxed memory models —
    a FIFO store buffer of issued-but-unflushed writes. *)

open Cobegin_lang

(** Continuation items.  [Ipop] restores the environment at block exit;
    [Iret] marks a pending procedure return (destination + caller
    environment); [Ijoin] waits for the children of a cobegin. *)
type item =
  | Istmt of Ast.stmt
  | Ipop of Env.t
  | Iret of { dest : Ast.lvalue option; saved_env : Env.t; site : int }
  | Ijoin of { cob : int; children : Value.pid list }

(** Private: processes are built only by {!make} and {!update}, which
    keep the cached {!hash} valid. *)
type t = private {
  pid : Value.pid;
  env : Env.t;
  stack : item list;
  pstr : Pstring.t;
  buf : (Value.loc * Value.t) list;
      (** store buffer, oldest write first; always [[]] under SC *)
  mutable h : int;  (** the cache behind {!hash}; read it through {!hash} *)
}

val make :
  ?buf:(Value.loc * Value.t) list ->
  pid:Value.pid ->
  env:Env.t ->
  stack:item list ->
  pstr:Pstring.t ->
  unit ->
  t

val update :
  ?env:Env.t ->
  ?stack:item list ->
  ?pstr:Pstring.t ->
  ?buf:(Value.loc * Value.t) list ->
  t ->
  t
(** [update ~stack p] is [p] with the given fields replaced (the pid
    never changes) — the one way to derive a process from another. *)

val hash : t -> int
(** Full-width hash of exactly the fields {!equal} compares, computed on
    first use and cached in the process.  Environments contribute their
    own cached {!Env.hash}, so this never walks an environment.  Equal
    processes hash alike, however they were built. *)

val item_equal : item -> item -> bool

val equal : t -> t -> bool
(** Same pid, environment, stack (statements by label), procedure
    string and store buffer; compares {!hash} first. *)

(** Canonical representation: statements identified by label,
    environments by sorted bindings, store buffers verbatim (order is
    semantically significant).  Not on the exploration path; it is the
    oracle {!equal} and {!hash} are tested against through
    {!Config.repr}. *)
type item_repr =
  | Rstmt of int
  | Rpop of (string * Value.loc) list
  | Rret of string * (string * Value.loc) list
  | Rjoin of int * Value.pid list

type repr = {
  r_pid : Value.pid;
  r_env : (string * Value.loc) list;
  r_stack : item_repr list;
  r_pstr : string;
  r_buf : (Value.loc * Value.t) list;
}

val item_repr : item -> item_repr
val repr : t -> repr

val next_stmt : t -> Ast.stmt option
(** The statement the process executes next, when its top item is one. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
