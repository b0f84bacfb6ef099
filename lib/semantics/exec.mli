(** Direct execution under a scheduler: one interleaving, run to
    completion.  The testing oracle for the exploration engines — every
    final store an executor can produce must appear among the explored
    final configurations. *)

type outcome =
  | Terminated of Config.t
  | Error of string * Config.t
  | Deadlock of Config.t
  | Out_of_fuel of Config.t

type trace_entry = { chosen : Value.pid; events : Step.events }

type run = {
  outcome : outcome;
  trace : trace_entry list;  (** most recent step first *)
}

val final_config : outcome -> Config.t

val run :
  ?max_steps:int ->
  ?from:Config.t ->
  Step.ctx ->
  pick:(Step.action list -> Step.action) ->
  run
(** Run from [from] (default: the initial configuration).  [pick]
    chooses among the enabled actions (under TSO/PSO these include
    buffer flushes, recorded in the trace under the flushing process's
    pid); it is never called on the empty list. *)

val run_random : ?max_steps:int -> Step.ctx -> seed:int -> run
val run_round_robin : ?max_steps:int -> Step.ctx -> run

val run_leftmost : ?max_steps:int -> Step.ctx -> run
(** Deterministic: always the first enabled action (under SC, the least
    pid). *)

val all_events : run -> Step.events
(** The merged instrumentation of the whole run, in execution order. *)
