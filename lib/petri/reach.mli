(** Reachability-graph generation for place/transition nets: ordinary
    (full) expansion and stubborn-set expansion with Valmari's closure
    rules — the construction behind the paper's dining-philosophers
    scaling claim (section 2.2, citing [Val88]).

    Firing only the enabled members of a stubborn set at each marking
    preserves every deadlock while visiting far fewer markings. *)

type stats = {
  states : int;
  edges : int;
  deadlocks : int;
  max_frontier : int;
}

type result = {
  stats : stats;
  status : Budget.status;
      (** [Truncated _] when a budget fired: the stats and deadlocks
          describe the partial marking graph generated so far *)
  deadlock_markings : Net.marking list;
}

val pp_stats : Format.formatter -> stats -> unit

val explore :
  ?max_states:int ->
  ?budget:Budget.t ->
  Net.t ->
  expand:(Net.marking -> Net.transition list -> Net.transition list) ->
  result
(** The exploration kernel ({!Kernel.Make}, fault site [reach.pop],
    journal events [reach.progress] and [reach.done]) over markings:
    [expand m enabled] returns the transitions to fire at [m], a subset
    of its enabled transitions [enabled].  Never raises on exhaustion:
    the partial marking graph comes back with [status = Truncated _]. *)

val full : ?max_states:int -> ?budget:Budget.t -> Net.t -> result
(** Ordinary reachability. *)

val closure : Net.t -> Net.indices -> Net.marking -> seed:int -> int list
(** The stubborn closure of a seed transition at a marking: enabled
    members drag in input-sharing transitions; disabled members drag in
    the producers of one insufficiently marked input place. *)

val stubborn_expand :
  Net.t -> Net.indices -> Net.marking -> Net.transition list ->
  Net.transition list
(** [stubborn_expand net idx m enabled]: the enabled members of the
    smallest stubborn closure over the seeds [enabled], the transitions
    enabled at [m]. *)

val stubborn : ?max_states:int -> ?budget:Budget.t -> Net.t -> result
(** Stubborn-set reachability. *)
