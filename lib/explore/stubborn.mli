(** Stubborn-set (persistent-set) reduction for programs: the paper's
    Algorithm 1 generalized.

    At each configuration, process k conflicts with process j when k's
    next-action footprint conflicts with the may-access of j's whole
    continuation; the relation is directed.  From each enabled seed the
    least set closed under it and under join-enabling (a waiting parent
    pulls its live children in) is a persistent set; the enabled members
    of the one with the fewest of them are expanded, ties going to the
    lowest seed index.

    Guarantees: all final configurations and deadlocks of the full graph
    are found.  Error configurations reachable only through ignored
    interleavings of diverging processes may be folded; use {!Space.full}
    for exhaustive error search. *)

open Cobegin_semantics

type reduction_stats = {
  mutable singleton_expansions : int;
      (** steps where a single process sufficed *)
  mutable component_expansions : int;
      (** steps firing a proper subset of the enabled processes *)
  mutable full_expansions : int;  (** steps that degenerated to full *)
}

val new_stats : unit -> reduction_stats

val choose_expansion :
  ?stats:reduction_stats ->
  Mayaccess.ctx ->
  Step.ctx ->
  Config.t ->
  Step.action list ->
  Step.action list
(** [choose_expansion mctx ctx c enabled] is the persistent set fired at
    [c], given its enabled actions [enabled] (as {!Space.classify}
    returns them): a non-empty subset of [enabled] whenever [enabled] is
    non-empty.  Under {!Step.Sc} this
    is a persistent set of processes (as [Arun] actions); under
    TSO/PSO the may-access analysis does not model pending flushes, so
    every step degenerates to full expansion (sound, no reduction). *)

val closure : Mayaccess.ctx -> Step.ctx -> Config.t -> Proc.t -> Proc.t list
(** [closure mctx ctx c p] is the directed closure of the live process
    [p] at [c], enabled or not, in pid order: the set
    {!choose_expansion} weighs for the seed [p]. *)

val explore :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?stats:reduction_stats ->
  Step.ctx ->
  Space.result
(** Stubborn-set exploration of a program.  Stops cleanly at budget
    exhaustion and returns the partial result (see {!Space.full}). *)
