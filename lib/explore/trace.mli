(** Witness traces: BFS for a configuration satisfying a predicate,
    returning the schedule of steps that reaches it — a kernel run
    ({!Space.generate}, site [trace]) annotated with schedules.  Under
    TSO/PSO a schedule names buffer flushes too.  Replay a witness with
    {!Cobegin_semantics.Replay}. *)

open Cobegin_semantics

type witness = {
  schedule : Replay.step list;  (** steps fired, in order, from the start *)
  target : Config.t;  (** the configuration reached *)
  explored : int;  (** configurations admitted by the search *)
}

val search :
  ?max_configs:int -> Step.ctx -> pred:(Config.t -> bool) -> witness option
(** Shortest schedule (in steps) to a configuration satisfying [pred];
    [None] if none exists among the first [max_configs] (default
    200 000) configurations admitted. *)

val error_witness : ?max_configs:int -> Step.ctx -> witness option
(** A schedule reaching an error configuration. *)

val final_witness :
  ?max_configs:int -> Step.ctx -> pred:(Store.t -> bool) -> witness option
(** A schedule to a final configuration whose store satisfies [pred]. *)

val pp_witness : Format.formatter -> witness -> unit
(** [schedule (N steps, M configs explored): S → S → ...], each step
    printed by {!Replay.pp_step}. *)
