(** May-Happen-in-Parallel from the nested cobegin structure and the
    interprocedural call graph — polynomial in program size, no
    exploration.  Two labels are MHP iff they are reachable (closing
    over calls; indirect calls reach every procedure) from two distinct
    branches of some cobegin; a procedure reachable from two branches is
    MHP with itself.

    The relation over-approximates the dynamic one: every pair of
    actions co-enabled in some reachable configuration of [Step] is an
    MHP pair here, which is what the cross-validation harness in [test/]
    checks against [Race.find]. *)

open Cobegin_lang
module SS = Ast.StringSet

type site = {
  s_label : int;
  s_sync : bool;
      (** await / lock / unlock — excluded from race candidates, like
          the dynamic detector's [is_sync] filter *)
  s_vr : SS.t;  (** reads of names visible at the generating cobegin *)
  s_vw : SS.t;  (** writes of such names *)
  s_ar : SS.t;  (** reads of address-taken names, any scope *)
  s_aw : SS.t;  (** writes of address-taken names, any scope *)
  s_mem_rd : bool;  (** may read through a pointer *)
  s_mem_wr : bool;  (** may write through a pointer, or free *)
}

type branch = { b_stmt : Ast.stmt; b_sites : site list }

type context = {
  c_label : int;  (** label of the generating cobegin *)
  c_visible : SS.t;  (** names in scope at the cobegin *)
  c_branches : branch list;
}

type call_site = {
  k_label : int;
  k_proc : string;  (** procedure containing the call *)
  k_callees : SS.t;  (** procedures the call may invoke *)
}

type t

val of_program : Ast.program -> t
val program : t -> Ast.program
val contexts : t -> context list

val may_happen_parallel : t -> int -> int -> bool
(** Some context lists the two labels under distinct branches.  Answered
    from a per-label index of (context, branch) positions, so the
    relation itself is never enumerated. *)

val addr_taken : t -> SS.t
val call_sites : t -> call_site list
val callable_procs : t -> SS.t
(** Procedures some call site may invoke (callers of the entry kill
    lock-stability, see [Lockset]). *)

val proc_of_label : t -> int -> string option
