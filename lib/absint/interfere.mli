(** Thread-modular rely-guarantee interference analysis (Miné-style).

    Instead of enumerating interleavings, each process of a cobegin is
    analyzed {e sequentially} by a per-process abstract interpreter;
    every read of a shared variable joins in the current {e
    interference} — the join of all abstract values concurrent
    processes may write to it — and every write to a shared variable
    feeds that interference back.  The whole ensemble is iterated to a
    fixpoint with widening, so cost is polynomial in program size times
    fixpoint rounds where the explicit engines pay the interleaving
    explosion (paper section 2).

    With [~locksets] (the default), the must-held lockset analysis of
    {!Cobegin_static.Lockset} refines the interference: a shared
    variable all of whose cross-process accesses happen under a common
    eligible lock is {e protected} — reads made while holding the lock
    see no interference, and the value it holds at each [unlock]
    accumulates into a {e lock invariant} that is re-imported at each
    [lock].  This is what makes lock-based critical-section assertions
    provable; await-based protocols (Peterson) stay out of reach, which
    the precision-pin tests assert.

    Soundness contract (checked corpus-wide in [test/test_interfere.ml]
    and in CI): on every model the explicit engines finish, every
    concrete reachable store binding is contained in the abstract
    per-variable result delivered by {!val-check}.

    {b SC only.}  The rely-guarantee transfer functions model the
    sequentially consistent interleaving semantics: a write is
    published to the interference the moment it executes, and [fence]
    is a no-op.  Under the TSO/PSO store-buffer semantics
    ({!Cobegin_semantics.Step.model}) delayed flushes produce stale
    reads this analysis never accounts for, so its verdicts would be
    unsound there; {!Cobegin_core.Pipeline.analyze} therefore refuses
    to combine [interfere] with a non-SC memory model
    ([Invalid_argument]). *)

open Cobegin_lang
module SS = Ast.StringSet

(** {1 Verdicts} *)

type verdicts = {
  assert_may_fail : int list;
      (** labels of asserts not provable to always hold *)
  never_proceeds : int list;
      (** awaits / locks whose guard is never satisfiable — the process
          abstractly blocks forever past this label *)
  error_sites : int list;
      (** labels where a run-time error (type confusion, bad deref,
          bad call) may occur *)
  races : Cobegin_static.Lockset.race list;
      (** abstract race candidates: [Lockset.races ~locks:locksets]
          restricted to races whose two endpoints are both abstractly
          reachable *)
}

val pp_verdicts : Format.formatter -> verdicts -> unit

(** {1 Domain-erased driver} *)

type summary = {
  domain : Analyzer.domain;
  locksets : bool;
  rounds : int;  (** ensemble fixpoint rounds *)
  widenings : int;
  stmt_visits : int;
  status : Budget.status;
  shared : string list;  (** interference variables, sorted *)
  protected_ : (string * string) list;
      (** (variable, protecting lock), locksets mode only *)
  interference : (string * string) list;
      (** (variable, printed abstract interference) *)
  bindings : (string * string) list;
      (** (variable, printed abstract over-approximation of every value
          it ever holds) *)
  reachable : int list;
      (** labels the final reporting pass reached, ascending *)
  verdicts : verdicts;
  check :
    (Cobegin_semantics.Value.loc * Cobegin_semantics.Value.t) list ->
    (Cobegin_semantics.Value.loc * Cobegin_semantics.Value.t) list;
      (** soundness oracle: the sublist of concrete store bindings NOT
          contained in the abstract results (empty = contained) *)
}

val run :
  ?domain:Analyzer.domain ->
  ?locksets:bool ->
  ?budget:Budget.t ->
  Cobegin_static.Lockset.t ->
  summary
(** Analyzes the program of a static base
    ({!Cobegin_static.Lockset.of_program}), whose MHP contexts, locksets
    and lock-suppressed races it reads, over {!Aval} with flag pointer
    and procedure components and the domain's [Analyzer] lattice.
    Defaults: intervals (whose widening lands on thresholds harvested
    from the program's integer constants), locksets on.  Joins widen
    from round 2 (and a loop head after 2 growing iterations); a run
    stops after 200 rounds with [Truncated (Fuel 200)]. *)

val pp_summary : Format.formatter -> summary -> unit
