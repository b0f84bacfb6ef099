(** State-space generation (paper section 2).

    Breadth-first construction of the configuration graph of a program
    under a pluggable {e expansion strategy}: [full] fires every enabled
    process at every configuration; {!Stubborn} and {!Sleep} plug
    reduced strategies into the kernel, {!generate}.  The engine
    accumulates configuration and transition counts, the terminal
    configurations (final, deadlocked, erroneous) and the merged
    instrumentation log consumed by the analyses of Cobegin_analysis. *)

open Cobegin_semantics

type stats = {
  configurations : int;  (** distinct configurations visited *)
  transitions : int;  (** transitions fired *)
  max_frontier : int;  (** peak size of the BFS queue *)
  finals : int;  (** configurations with every process terminated *)
  deadlocks : int;  (** non-final configurations with nothing enabled *)
  errors : int;  (** error configurations (runtime failures) *)
}

type result = {
  stats : stats;
  status : Budget.status;
      (** [Complete], or [Truncated reason] when a resource budget was
          exhausted — the other fields then hold the partial result *)
  final_configs : Config.t list;
  deadlock_configs : Config.t list;
  error_configs : Config.t list;
  log : Step.events;
      (** the distinct events of every transition fired (see
          {!Step.log}), in no particular order *)
}

(** {1 The exploration kernel}

    {!generate} is the one sequential BFS of the explicit-state
    engines.  {!explore}, {!full}, {!Stubborn.explore}, {!Sleep.explore},
    {!Checkpoint.full}/[resume] and [Race.find] are calls to it that
    differ only in its parameters.  {!Parallel} keeps its own worker
    loop but shares {!classify}, {!drain} and {!assemble}. *)

(** Terminal configurations classified so far. *)
type terminals = {
  mutable finals : Config.t list;
  mutable deadlocks : Config.t list;
  mutable errors : Config.t list;
}

val no_terminals : unit -> terminals

val classify : Step.ctx -> terminals -> Config.t -> Step.action list
(** [classify ctx t c] records [c] in [t] when it is terminal (an error,
    all processes terminated, or nothing enabled) and returns [[]];
    otherwise it returns the enabled actions of [c]. *)

val drain :
  ?visit:(Config.t -> Step.action list -> unit) ->
  Step.ctx ->
  terminals ->
  Config.t Seq.t ->
  terminals
(** The truncation drain: classify the admitted-but-unpopped frontier
    (no expansion, no new transitions, no admissions) into a copy of
    [t], so terminal configurations sitting in the queue still count
    toward [finals]/[deadlocks]/[errors].  [t] itself is left as it
    was.  [visit] runs once per drained configuration with what
    {!classify} returned. *)

val assemble :
  status:Budget.status ->
  configurations:int ->
  transitions:int ->
  max_frontier:int ->
  log:Step.events ->
  terminals ->
  result

(** The part of an expansion a configuration budget cut short: the
    successor that fired but was refused admission, and the actions
    that never fired. *)
type 'a remainder = {
  r_config : Config.t;  (** the configuration being expanded *)
  r_refused : Config.t * 'a;  (** its refused successor, already fired *)
  r_actions : (Step.action * 'a) list;  (** its actions still to fire *)
}

(** The kernel state between two pops.  It is plain data, interner
    included, so {!Checkpoint} marshals it as is and a resumed run
    continues with the same pools and ids. *)
type 'a state = {
  interner : Intern.state;
      (** this exploration's pools: every admitted configuration is
          rebuilt from them ({!Config.intern}), and the visited set is
          keyed by ids into them *)
  visited : 'a Config.Digest_tbl.t;
      (** every admitted configuration with its annotation *)
  queue : (Config.t * 'a) Queue.t;  (** the frontier, front first *)
  terminals : terminals;  (** classified popped configurations *)
  mutable transitions : int;
  mutable max_frontier : int;
  events : Step.log;  (** the distinct events fired so far *)
  mutable remainder : 'a remainder option;
      (** set when {!Budget.config_guard} stopped the run in the middle
          of an expansion; {!generate} finishes it before its first pop,
          so a resumed run fires exactly what the uninterrupted run did *)
}

val start : Step.ctx -> 'a -> 'a state
(** A fresh state with a fresh interner: the initial configuration
    admitted and queued with the given annotation. *)

val no_revisits : 'a -> 'a -> 'a option
(** The admission policy of every engine but {!Sleep}: a configuration
    is expanded once. *)

val all_actions :
  Config.t -> unit -> Step.action list -> (Step.action * unit) list
(** Full expansion: fire every enabled action. *)

val generate :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?visit:(Config.t -> Step.action list -> unit) ->
  ?boundary:('a state -> unit) ->
  ?log:bool ->
  site:string ->
  admit:('a -> 'a -> 'a option) ->
  expand:(Config.t -> 'a -> Step.action list -> (Step.action * 'a) list) ->
  Step.ctx ->
  'a state ->
  result
(** [generate ~site ~admit ~expand ctx st] runs the BFS from [st] until
    the frontier is empty or the budget stops it.  Its parameters:

    - the annotation ['a] kept with each visited configuration ([unit],
      or {!Sleep}'s set of sleeping processes);
    - [expand c a enabled] returns the actions to fire at the popped
      non-terminal configuration [c] (annotation [a], enabled actions
      [enabled]), each with the annotation its successor is offered
      under.  The actions must be a subset of [enabled]; returning
      none fires nothing (only an empty [enabled] makes a deadlock);
    - [admit recorded offered], consulted when a successor was already
      visited: [Some a] re-records it with [a] and queues it again,
      [None] drops the revisit ({!no_revisits});
    - [visit c enabled] runs exactly once per popped or drained queue
      entry, with [enabled = []] at terminal configurations.  With an
      admission policy that never re-queues, that is once per admitted
      configuration: [stats.configurations] times;
    - [boundary st] runs at each iteration boundary, after the budget
      check and before the pop, with the state a resumed run would
      restart from.

    A state with a [remainder] has the remainder offered and fired
    first, before the first budget check.

    [site] names the run in the fault plan ([<site>.pop], hit once per
    pop) and in the journal ([<site>.progress] every
    {!Cobegin_obs.Journal.progress_every} pops, with the sizes of [st]'s
    pools and the budget's headroom, and [<site>.done]).  [log] (default [true])
    keeps the event log and counts the run in the [space.*] metrics;
    [Race.find] turns it off, since its pass re-walks a space whose
    exploration is accounted for elsewhere and reads no events.

    The budget is [budget], or a fresh one bounding the visited set to
    [max_configs] (default one million).  Never raises on exhaustion:
    the partial result comes back tagged [Truncated _], with the
    frontier classified by {!drain}; [st] then holds the pre-drain
    state. *)

val explore :
  ?max_configs:int ->
  ?budget:Budget.t ->
  Step.ctx ->
  expand:(Config.t -> Step.action list -> Step.action list) ->
  result
(** [explore ctx ~expand] generates the graph, firing at each
    configuration [c] exactly the actions [expand c enabled] returns,
    where [enabled] is the non-empty list {!classify} computed (under
    {!Step.Sc} actions are exactly the enabled processes; under TSO/PSO
    they also include buffer flushes).  [expand] must return a non-empty
    subset of [enabled].  When
    [budget] is given it governs the run ([max_configs] is then
    ignored); otherwise [max_configs] (default one million) bounds the
    visited set.  Never raises on exhaustion: the partial result comes
    back with [status = Truncated _], and the admitted-but-unexpanded
    frontier is still {e classified} — terminal configurations sitting
    in the queue count toward [finals]/[deadlocks]/[errors] (without
    firing anything). *)

val full :
  ?max_configs:int ->
  ?budget:Budget.t ->
  Step.ctx ->
  result
(** Ordinary (full interleaving) generation. *)

val final_store_reprs : result -> (Value.loc * Value.t) list list
(** Canonical list of the distinct final stores — the
    "result-configurations" used to compare strategies.  Sorted and
    deduplicated by {!Store.repr}, so two runs' lists compare equal
    whichever engines (and interners) produced them. *)

val pp_stats : Format.formatter -> stats -> unit
