(* Direct execution under a scheduler: runs one interleaving to completion.
   This is the testing oracle for the exploration engine — every final
   store an executor can produce must appear among the explored final
   configurations. *)

type outcome =
  | Terminated of Config.t
  | Error of string * Config.t
  | Deadlock of Config.t
  | Out_of_fuel of Config.t

type trace_entry = { chosen : Value.pid; events : Step.events }

type run = { outcome : outcome; trace : trace_entry list (* reversed *) }

let final_config = function
  | Terminated c | Error (_, c) | Deadlock c | Out_of_fuel c -> c

(* [pick] chooses among the enabled actions (never called on []). *)
let run ?(max_steps = 10_000) ?from ctx ~pick : run =
  let rec go c trace fuel =
    if Config.is_error c then
      {
        outcome = Error (Option.get c.Config.error, c);
        trace;
      }
    else if Config.all_terminated c then { outcome = Terminated c; trace }
    else if fuel = 0 then { outcome = Out_of_fuel c; trace }
    else
      match Step.enabled_actions ctx c with
      | [] -> { outcome = Deadlock c; trace }
      | enabled ->
          let a = pick enabled in
          let c', events = Step.fire_action ctx c a in
          go c'
            ({ chosen = Step.action_pid a; events } :: trace)
            (fuel - 1)
  in
  go (match from with Some c -> c | None -> Step.init ctx) [] max_steps

let run_random ?max_steps ctx ~seed : run =
  let rng = Random.State.make [| seed |] in
  run ?max_steps ctx ~pick:(fun enabled ->
      List.nth enabled (Random.State.int rng (List.length enabled)))

(* Round-robin: rotate the cursor through the enabled actions. *)
let run_round_robin ?max_steps ctx : run =
  let cursor = ref 0 in
  run ?max_steps ctx ~pick:(fun enabled ->
      let n = List.length enabled in
      let a = List.nth enabled (!cursor mod n) in
      incr cursor;
      a)

(* Deterministic left-most scheduling (the first enabled action — under
   SC, the least pid). *)
let run_leftmost ?max_steps ctx : run =
  run ?max_steps ctx ~pick:(fun enabled -> List.hd enabled)

let all_events r =
  List.fold_left
    (fun acc e -> Step.merge_events acc e.events)
    Step.no_events (List.rev r.trace)
