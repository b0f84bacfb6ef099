(* Schedule replay: execute a program under an explicit schedule (a list
   of steps, as produced by Explore.Trace witnesses).  Used to validate
   that a witness schedule actually reproduces the reported outcome, and
   by tests as an independent check of the exploration engine. *)

type step = Run of Value.pid | Flush of Value.pid * Value.loc

let step_of_action = function
  | Step.Arun p -> Run p.Proc.pid
  | Step.Aflush (p, l) -> Flush (p.Proc.pid, l)

let step_pid = function Run pid | Flush (pid, _) -> pid

(* A [Run] step prints as its pid, so SC schedules read as pid lists. *)
let pp_step ppf = function
  | Run pid -> Value.pp_pid ppf pid
  | Flush (pid, l) ->
      Format.fprintf ppf "flush(%a,%a)" Value.pp_pid pid Value.pp_loc l

type step_error =
  | Pid_not_enabled of Value.pid * int (* position in the schedule *)
  | Pid_not_found of Value.pid * int

type result =
  | Replayed of Config.t (* configuration after the whole schedule *)
  | Stuck of step_error * Config.t

let pp_step_error ppf = function
  | Pid_not_enabled (pid, i) ->
      Format.fprintf ppf "step %d: process %a is not enabled" i Value.pp_pid
        pid
  | Pid_not_found (pid, i) ->
      Format.fprintf ppf "step %d: process %a does not exist" i Value.pp_pid
        pid

(* Each step fires the enabled action it names. *)
let replay ctx (schedule : step list) : result =
  let rec go c i = function
    | [] -> Replayed c
    | step :: rest -> (
        let pid = step_pid step in
        if Config.is_error c then Replayed c
        else if Config.find_proc pid c = None then
          Stuck (Pid_not_found (pid, i), c)
        else
          match
            List.find_opt
              (fun a -> step_of_action a = step)
              (Step.enabled_actions ctx c)
          with
          | None -> Stuck (Pid_not_enabled (pid, i), c)
          | Some a -> go (fst (Step.fire_action ctx c a)) (i + 1) rest)
  in
  go (Step.init ctx) 0 schedule

(* Replay and then run the rest to completion deterministically (leftmost
   scheduling): the continuation of a witness prefix. *)
let replay_then_finish ?max_steps ctx schedule : Exec.outcome =
  match replay ctx schedule with
  | Stuck (_, c) -> Exec.Error ("stuck replay", c)
  | Replayed c -> (Exec.run ?max_steps ~from:c ctx ~pick:List.hd).Exec.outcome
