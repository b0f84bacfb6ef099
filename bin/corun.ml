(* corun — execute cobegin programs directly (no analysis):

     corun prog.cob                     leftmost deterministic schedule
     corun prog.cob --sched random --seed 7
     corun prog.cob --sched round-robin --trace
     corun prog.cob --witness-error     search + replay an error schedule

   Useful for trying out the language and for demonstrating that a
   schedule found by the explorer really happens. *)

open Cmdliner
open Cobegin_semantics

type sched = Leftmost | Random | Round_robin

let sched_conv =
  let parse = function
    | "leftmost" -> Ok Leftmost
    | "random" -> Ok Random
    | "round-robin" | "rr" -> Ok Round_robin
    | _ -> Error (`Msg "scheduler must be leftmost, random or round-robin")
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | Leftmost -> "leftmost"
      | Random -> "random"
      | Round_robin -> "round-robin")
  in
  Arg.conv (parse, print)

let pp_outcome ppf = function
  | Exec.Terminated c ->
      Format.fprintf ppf "terminated.@.final store:@.%a" Store.pp
        c.Config.store
  | Exec.Error (msg, _) -> Format.fprintf ppf "runtime error: %s" msg
  | Exec.Deadlock c ->
      Format.fprintf ppf "deadlock with %d blocked process(es)"
        (Config.num_procs c)
  | Exec.Out_of_fuel _ -> Format.fprintf ppf "step budget exhausted"

let run_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program to execute.")
  in
  let sched =
    Arg.(
      value & opt sched_conv Leftmost
      & info [ "sched"; "s" ] ~docv:"SCHED"
          ~doc:"Scheduler: $(b,leftmost), $(b,random) or $(b,round-robin).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the random scheduler.")
  in
  let fuel =
    Arg.(
      value & opt int 100_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Maximum number of steps.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print the pid fired at every step.")
  in
  let witness_error =
    Arg.(
      value & flag
      & info [ "witness-error" ]
          ~doc:
            "Search the state space for an error, print the schedule \
             reaching it, replay it, and exit 2 if one exists.")
  in
  let run file sched seed fuel trace witness_error =
    match Cobegin_core.Pipeline.read_program file with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok prog ->
        let ctx = Step.make_ctx prog in
        if witness_error then begin
          match Cobegin_explore.Trace.error_witness ctx with
          | None ->
              Format.printf "no error reachable@.";
              0
          | Some w -> (
              Format.printf "%a@." Cobegin_explore.Trace.pp_witness w;
              match Replay.replay ctx w.Cobegin_explore.Trace.schedule with
              | Replay.Replayed c when Config.is_error c ->
                  Format.printf "replayed: %s@."
                    (Option.get c.Config.error);
                  2
              | Replay.Replayed _ ->
                  Format.eprintf "internal: witness did not replay@.";
                  1
              | Replay.Stuck (e, _) ->
                  Format.eprintf "internal: %a@." Replay.pp_step_error e;
                  1)
        end
        else begin
          let r =
            match sched with
            | Leftmost -> Exec.run_leftmost ~max_steps:fuel ctx
            | Random -> Exec.run_random ~max_steps:fuel ctx ~seed
            | Round_robin -> Exec.run_round_robin ~max_steps:fuel ctx
          in
          if trace then
            List.iter
              (fun e ->
                Format.printf "→ %a@." Value.pp_pid e.Exec.chosen)
              (List.rev r.Exec.trace);
          Format.printf "%a@." pp_outcome r.Exec.outcome;
          match r.Exec.outcome with
          | Exec.Terminated _ -> 0
          | Exec.Error _ -> 2
          | Exec.Deadlock _ -> 3
          | Exec.Out_of_fuel _ -> 4
        end
  in
  Cmd.v
    (Cmd.info "corun" ~version:"1.0.0"
       ~doc:"execute cobegin programs under a chosen scheduler")
    Term.(
      const run $ file $ sched $ seed $ fuel $ trace $ witness_error)

let () = exit (Cmd.eval' run_cmd)
