(** Schedule replay: execute a program under an explicit schedule, as
    produced by {!Cobegin_explore.Trace} witnesses.  Validates that a
    witness actually reproduces its reported outcome. *)

(** One scheduling choice: run a process's next statement-level action,
    or publish its oldest buffered write to a location (TSO/PSO). *)
type step = Run of Value.pid | Flush of Value.pid * Value.loc

val step_of_action : Step.action -> step

val pp_step : Format.formatter -> step -> unit
(** A [Run] step prints as its pid; a flush as [flush(PID,LOC)]. *)

type step_error =
  | Pid_not_enabled of Value.pid * int
      (** the step's process exists but the step cannot fire (position
          given) *)
  | Pid_not_found of Value.pid * int
      (** no live process has the step's pid *)

type result =
  | Replayed of Config.t  (** configuration after the whole schedule *)
  | Stuck of step_error * Config.t  (** the schedule diverged *)

val pp_step_error : Format.formatter -> step_error -> unit

val replay : Step.ctx -> step list -> result
(** Fire the enabled action each step names, in order, from the initial
    configuration; stops early at an error configuration. *)

val replay_then_finish :
  ?max_steps:int -> Step.ctx -> step list -> Exec.outcome
(** Replay a prefix, then run to completion under deterministic leftmost
    scheduling ({!Exec.run} from the replayed configuration). *)
