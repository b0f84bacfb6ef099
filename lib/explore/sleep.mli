(** Sleep-set reduction (Godefroid), combined with the persistent sets of
    {!Stubborn}: after exploring process p's transition at a
    configuration, the sibling branches carry p in their sleep sets while
    p's action stays independent of everything fired since — firing a
    sleeping process would only rediscover a commuted permutation.

    Preserves final configurations and deadlocks like persistent sets;
    typically cuts {e transitions} well below the stubborn-only count. *)

open Cobegin_semantics

type stats = {
  mutable pruned_by_sleep : int;
      (** transitions skipped because the process slept *)
  mutable explored_transitions : int;
}

val new_stats : unit -> stats

val independent : Step.footprint -> Step.footprint -> bool
(** No read/write conflict between the two concrete footprints. *)

type sleep
(** A sleep set: the processes whose next action need not fire. *)

val awake : sleep
(** The empty sleep set, the initial configuration's. *)

val expansion :
  ?stats:stats ->
  Step.ctx ->
  Config.t ->
  sleep ->
  Step.action list ->
  (Step.action * sleep) list
(** [expansion ctx] is the strategy's expansion for {!Space.generate}:
    at [c] with sleep set [s] and enabled actions [enabled], the
    persistent set ({!Stubborn.choose_expansion}) minus the sleeping
    processes, each action with its successor's sleep set.  Apply it to
    [ctx] once: that builds the may-access context every call shares. *)

val admit : sleep -> sleep -> sleep option
(** The admission policy for revisits: re-expand a configuration reached
    again with a sleep set that is not a superset of the recorded one,
    under their intersection. *)

val explore :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?stats:stats ->
  Step.ctx ->
  Space.result
(** Persistent-set + sleep-set exploration: {!Space.generate} with
    {!expansion} and {!admit}.  Stops cleanly at budget exhaustion and
    returns the partial result (see {!Space.full}). *)
