(* coanalyze — command-line front end to the framework.

   Subcommands:
     analyze   run an engine on a source file and print the full report
     explore   just the state-space statistics (full vs stubborn vs both)
     races     co-enabledness race scan
     interfere thread-modular interference analysis (rely-guarantee)
     parallel  Shasha–Snir style parallelization report
     serve     the analysis daemon; client submits one request to it
     examples  print a named built-in example program

   Exit codes (analyze / explore / races / parallel):
     0  analysis ran to completion
     1  usage, parse or static errors
     2  a resource budget fired — the printed results are partial
     3  an analysis stage crashed (structured diagnostic printed)
     4  clean run, but the static lint suite has findings
        (--lint / --lint-only)
     5  DEGRADED: the supervisor exhausted its recovery ladder and the
        report is an honest partial result
        (precedence 1 > 5 > 3 > 2 > 4 > 0)

   Examples:
     coanalyze analyze prog.cob -e stubborn --coarsen
     coanalyze analyze prog.cob --lint-only
     coanalyze analyze prog.cob -e abstract/signs/clan
     coanalyze analyze prog.cob --jobs 4 --chaos kill@worker1:5
     coanalyze explore prog.cob --max-configs 1000 --timeout 5
     coanalyze explore prog.cob --checkpoint run.ckpt --checkpoint-every 500
     coanalyze explore prog.cob --resume run.ckpt
     coanalyze examples fig8 | coanalyze parallel /dev/stdin
     coanalyze serve /tmp/s.sock --max-configs 100000 &
     coanalyze client /tmp/s.sock prog.cob -e stubborn --races *)

open Cmdliner
open Cobegin_core
open Cobegin_absint

(* The truncation banner and the exit-code convention shared by every
   analysis subcommand.  The banner carries the wall time and the peak
   heap so a truncated run is diagnosable from the CLI alone. *)
let report_status ~t0 status =
  match status with
  | Budget.Complete -> ()
  | Budget.Truncated reason ->
      let elapsed = Unix.gettimeofday () -. t0 in
      (* Gc.stat, not quick_stat: the OCaml 5 runtime leaves quick_stat's
         top_heap_words at 0 until a major collection has run, and one
         full stat at the end of a truncated run is cheap *)
      let peak_mb =
        float_of_int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. (1024. *. 1024.)
      in
      Format.eprintf
        "TRUNCATED (%s) — results below are partial (elapsed %.1fs, peak \
         heap %.1f MB)@."
        (Budget.reason_to_string reason)
        elapsed peak_mb

(* --- telemetry plumbing (--trace / --metrics / --progress) --- *)

module Obs = Cobegin_obs
module Cli = Cobegin_serve.Cli

(* --progress is the journal's heartbeat on stderr: [f] runs with the
   journal started, and the journal stops however [f] ends. *)
let with_progress progress f =
  if progress then begin
    Obs.Journal.start ~progress:stderr ();
    Fun.protect ~finally:Obs.Journal.stop f
  end
  else f ()

(* Final metrics snapshot, stamped with the run's wall time and peak
   heap, as one JSON object. *)
let write_metrics path ~t0 =
  Obs.Metrics.set
    (Obs.Metrics.gauge "run.elapsed_ms")
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
  (* Gc.stat: quick_stat's top_heap_words stays 0 until a major GC *)
  Obs.Metrics.set
    (Obs.Metrics.gauge "run.peak_heap_words")
    (Gc.stat ()).Gc.top_heap_words;
  let oc = open_out path in
  output_string oc (Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
  output_char oc '\n';
  close_out oc

(* Exit-code policy (1 > 5 > 3 > 2 > 4 > 0) lives in Pipeline, where
   the tests can exercise it directly. *)
let exit_code = Pipeline.exit_code

(* --- chaos plumbing (--chaos / COBEGIN_CHAOS) --- *)

(* The flag wins over the env var; the installed plan is echoed on
   stderr in its canonical spelling so every chaos run is replayable
   from its own output. *)
let install_chaos chaos =
  let apply ~origin s =
    match Fault.parse s with
    | Ok plan ->
        Fault.install plan;
        Format.eprintf "chaos plan active (%s): %s@." origin
          (Fault.to_spec plan);
        Ok ()
    | Error e -> Error (Printf.sprintf "bad chaos spec (%s): %s" origin e)
  in
  match chaos with
  | Some s -> apply ~origin:"--chaos" s
  | None -> (
      match Sys.getenv_opt Fault.env_var with
      | Some s when String.trim s <> "" -> apply ~origin:Fault.env_var s
      | _ -> Ok ())

(* A raising engine fault that escaped every supervisor (the bare
   explore/races subcommands run engines directly): print a structured
   diagnostic instead of an uncaught-exception abort. *)
let structured_fault = function
  | (Fault.Injected _ | Out_of_memory) as e -> Some (Printexc.to_string e)
  | Cobegin_explore.Parallel.Worker_failed _ as e ->
      Some (Printexc.to_string e)
  | _ -> None

(* Recovery ladder + DEGRADED banner on stderr (analyze/parallel). *)
let report_recovery (report : Pipeline.report) =
  List.iter
    (fun r ->
      Format.eprintf "recovery: %a@." Pipeline.pp_recovery_rung r)
    report.Pipeline.recovery;
  if report.Pipeline.degraded then
    Format.eprintf
      "DEGRADED — the recovery ladder was exhausted; the results above \
       are an honest partial report (exit code 5)@."

let print_backtraces ~debug (report : Pipeline.report) =
  if debug then
    List.iter
      (fun (f : Pipeline.stage_failure) ->
        match f.Pipeline.backtrace with
        | Some bt ->
            Format.eprintf "backtrace (%s):@.%s@." f.Pipeline.stage bt
        | None -> ())
      report.Pipeline.stage_failures

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Source file in the cobegin language.")

let lint_only_arg =
  Arg.(
    value & flag
    & info [ "lint-only" ]
        ~doc:
          "Run only the static lint suite — no exploration, no budget.  \
           Exit code 4 when there are findings, 0 otherwise.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Install a deterministic fault plan before running, e.g. \
           $(b,crash@space.pop:100,kill@worker1:5,seed=7).  Overrides \
           the $(b,COBEGIN_CHAOS) environment variable.  The canonical \
           plan is echoed on stderr so any chaos run is replayable.")

let debug_arg =
  Arg.(
    value & flag
    & info [ "debug" ]
        ~doc:
          "Record exception backtraces and print them for every stage \
           failure.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file with one span per \
           pipeline stage.  Load it in chrome://tracing or Perfetto.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry counters and write the final metrics \
           snapshot (counters, gauges, histograms) as JSON.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a progress line on stderr at most once a second (the \
           first after one second) from whichever engine is running: \
           elapsed time, configurations, frontier, transitions, rate, \
           heap, pool sizes and budget headroom.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the full report as one JSON object to $(docv); $(b,-) \
           writes it to stdout in place of the text report.  The schema \
           is versioned ($(b,format_version)) and deterministic: two \
           identical runs emit identical bytes.  The exit code is the \
           same as in text mode and is embedded in the object.")

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write the structured event journal to $(docv) as JSON lines \
           (one event per line), filtered by $(b,--log-level).  Stage \
           crashes, injected faults and recovery rungs additionally dump \
           the in-memory flight recorder — the last ~256 events of every \
           level — into the log, bypassing the threshold.")

let log_level_arg =
  let parse s =
    match Obs.Journal.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg "log level must be debug, info, warn or error")
  in
  let print ppf l = Format.pp_print_string ppf (Obs.Journal.level_name l) in
  Arg.(
    value
    & opt (conv (parse, print)) Obs.Journal.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Sink threshold for $(b,--log): $(b,debug), $(b,info) (the \
           default), $(b,warn) or $(b,error).  The flight-recorder ring \
           records every level regardless of the threshold.")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:
          "Write a digest-addressed run manifest to $(docv): one JSON \
           record keyed by program digest × canonical options \
           fingerprint × memory model × format version, carrying the \
           status, exit code, wall time, metrics snapshot (with \
           $(b,--metrics)) and chaos provenance.  Two runs with the \
           same key computed the same analysis — the key a result \
           cache looks up.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "($(b,explore)) Run the checkpointed sequential full engine, \
           serializing the in-flight state to $(docv) at the configured \
           cadence.  Writes are atomic; a killed run resumes with \
           $(b,--resume) and reports the same final counts as one that \
           was never killed.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (Cli.positive int) 4096
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint cadence in worklist pops (default 4096).")

let checkpoint_secs_arg =
  Arg.(
    value
    & opt (some (Cli.positive float)) None
    & info [ "checkpoint-secs" ] ~docv:"SECS"
        ~doc:"Additionally checkpoint every $(docv) seconds of wall time.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "($(b,explore)) Load the checkpoint at $(docv) (written for \
           the same program) and continue it, checkpointing onward to \
           the same file.")

let options_term = Cli.options ()

let budget_fields =
  [ "max_configs"; "max_transitions"; "timeout_s"; "max_heap_words" ]

let analyze_cmd =
  let run file options lint_only json log log_level manifest trace metrics
      progress chaos debug =
    match install_chaos chaos with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok () -> (
        if debug then Printexc.record_backtrace true;
        match Pipeline.read_program file with
        | Error e ->
            Format.eprintf "%s@." e;
            1
        | Ok prog ->
            if lint_only then begin
              (* static suite alone: no exploration, no budget; the
                 canonical-order self-check makes non-canonical output a
                 crash the CI sweep catches *)
              let r =
                Cobegin_static.Lint.run (Cobegin_static.Lockset.of_program prog)
              in
              Cobegin_static.Report.assert_canonical
                r.Cobegin_static.Lint.findings;
              Format.printf "%a@." Cobegin_static.Lint.pp r;
              if r.Cobegin_static.Lint.findings <> [] then 4 else 0
            end
            else begin
              let t0 = Unix.gettimeofday () in
              if metrics <> None then Obs.Metrics.set_enabled true;
              (* The journal runs whenever a log sink or the heartbeat
                 is requested — and also, ring-only, when a JSON report
                 is: a crashed stage then carries its flight-recorder
                 dump even without --log. *)
              let log_oc = Option.map open_out log in
              if log_oc <> None || json <> None || progress then
                Obs.Journal.start ~threshold:log_level ?sink:log_oc
                  ?progress:(if progress then Some stderr else None)
                  ();
              let finish code =
                Obs.Journal.stop ();
                Option.iter close_out log_oc;
                code
              in
              let spans =
                match trace with
                | None -> None
                | Some _ -> Some (Obs.Span.create ())
              in
              match Pipeline.analyze ~options ?spans prog with
              | exception Invalid_argument msg ->
                  (* SC-only engine/analysis under --memory-model tso/pso *)
                  Format.eprintf "%s@." msg;
                  finish 1
              | report ->
              (* --json - replaces the text report on stdout (stderr
                 still carries the banners); --json FILE keeps both *)
              (match json with
              | Some "-" -> ()
              | None | Some _ ->
                  Format.printf "%a@." Pipeline.pp_report report);
              List.iter
                (fun f -> Format.eprintf "%a@." Pipeline.pp_stage_failure f)
                report.Pipeline.stage_failures;
              print_backtraces ~debug report;
              report_recovery report;
              (match (trace, spans) with
              | Some path, Some t -> Obs.Span.write_trace t path
              | _ -> ());
              Option.iter (fun path -> write_metrics path ~t0) metrics;
              report_status ~t0 report.Pipeline.status;
              (match json with
              | None -> ()
              | Some "-" ->
                  print_string (Report.to_json report);
                  print_newline ()
              | Some path ->
                  let oc = open_out path in
                  output_string oc (Report.to_json report);
                  output_char oc '\n';
                  close_out oc);
              let static_findings =
                match report.Pipeline.static with
                | Some r -> r.Cobegin_static.Lint.findings <> []
                | None -> false
              in
              let code =
                exit_code ~stage_failures:report.Pipeline.stage_failures
                  ~static_findings ~degraded:report.Pipeline.degraded
                  report.Pipeline.status
              in
              (match manifest with
              | None -> ()
              | Some path ->
                  let metrics_json =
                    if metrics <> None then
                      Some (Obs.Metrics.to_json (Obs.Metrics.snapshot ()))
                    else None
                  in
                  let m =
                    Obs.Manifest.make
                      ~program_digest:
                        (Report.program_digest report.Pipeline.program)
                      ~options_fingerprint:
                        (Pipeline.options_fingerprint options)
                      ~memory_model:
                        (Cobegin_semantics.Step.model_name
                           options.Pipeline.memory_model)
                      ~status:
                        (Budget.status_to_string report.Pipeline.status)
                      ~exit_code:code
                      ~elapsed_s:(Unix.gettimeofday () -. t0)
                      ?metrics:metrics_json
                      ?chaos:(Option.map Fault.to_spec (Fault.installed ()))
                      ()
                  in
                  Obs.Manifest.write m path);
              finish code
            end)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the full analysis pipeline on a program.")
    Term.(
      const run $ file_arg $ options_term $ lint_only_arg $ json_arg
      $ log_arg $ log_level_arg $ manifest_arg $ trace_arg $ metrics_arg
      $ progress_arg $ chaos_arg $ debug_arg)

let explore_cmd =
  let run file (o : Pipeline.options) metrics progress chaos ckpt ckpt_every
      ckpt_secs resume_path =
    match install_chaos chaos with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok () -> (
    match Pipeline.read_program file with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok prog -> (
        let t0 = Unix.gettimeofday () in
        if metrics <> None then Obs.Metrics.set_enabled true;
        let prog =
          if o.coarsen then Cobegin_trans.Coarsen.program prog else prog
        in
        let ctx =
          Cobegin_semantics.Step.make_ctx ~model:o.memory_model prog
        in
        (* a fresh budget per engine run so the counters start at zero,
           shared across domains when [jobs > 1] *)
        let budget jobs = Pipeline.budget_of_options { o with jobs } in
        let rec body () =
          match (resume_path, ckpt) with
          | Some path, _ | None, Some path ->
              (* checkpoint mode: the checkpointed sequential full engine
                 only, printing the same "full:" row as the comparison
                 mode so a resumed run's counts diff cleanly against an
                 uninterrupted one *)
              let cadence =
                {
                  Cobegin_explore.Checkpoint.every_configs = ckpt_every;
                  every_s = ckpt_secs;
                }
              in
              let engine =
                if resume_path <> None then Cobegin_explore.Checkpoint.resume
                else Cobegin_explore.Checkpoint.full
              in
              let r = engine ~budget:(budget 1) ~cadence ~path ctx in
              Format.printf "full:     %a@." Cobegin_explore.Space.pp_stats
                r.Cobegin_explore.Space.stats;
              Option.iter (fun path -> write_metrics path ~t0) metrics;
              report_status ~t0 r.Cobegin_explore.Space.status;
              exit_code r.Cobegin_explore.Space.status
          | None, None -> run_comparison ()
        and run_comparison () =
        let full = Cobegin_explore.Space.full ~budget:(budget 1) ctx in
        let stats = Cobegin_explore.Stubborn.new_stats () in
        let stub =
          Cobegin_explore.Stubborn.explore ~budget:(budget 1) ~stats ctx
        in
        Format.printf "full:     %a@." Cobegin_explore.Space.pp_stats
          full.Cobegin_explore.Space.stats;
        Format.printf "stubborn: %a@." Cobegin_explore.Space.pp_stats
          stub.Cobegin_explore.Space.stats;
        let slp = Cobegin_explore.Sleep.explore ~budget:(budget 1) ctx in
        Format.printf "sleep:    %a@." Cobegin_explore.Space.pp_stats
          slp.Cobegin_explore.Space.stats;
        let par =
          if o.jobs > 1 then begin
            let p =
              Cobegin_explore.Parallel.full ~jobs:o.jobs
                ~budget:(budget o.jobs) ctx
            in
            Format.printf "parallel (%d domains): %a@." o.jobs
              Cobegin_explore.Space.pp_stats p.Cobegin_explore.Space.stats;
            Some p
          end
          else None
        in
        Format.printf
          "stubborn expansions: singleton=%d component=%d full=%d@."
          stats.Cobegin_explore.Stubborn.singleton_expansions
          stats.component_expansions stats.full_expansions;
        let status =
          Budget.combine full.Cobegin_explore.Space.status
            (Budget.combine stub.Cobegin_explore.Space.status
               (Budget.combine slp.Cobegin_explore.Space.status
                  (match par with
                  | Some p -> p.Cobegin_explore.Space.status
                  | None -> Budget.Complete)))
        in
        if Budget.is_complete status then begin
          let finals = Cobegin_explore.Space.final_store_reprs in
          Format.printf "final stores agree: %b@."
            (finals stub = finals full && finals slp = finals full);
          match par with
          | None -> ()
          | Some p ->
              let s = full.Cobegin_explore.Space.stats
              and q = p.Cobegin_explore.Space.stats in
              Format.printf "sequential/parallel agree: %b@."
                (s.Cobegin_explore.Space.configurations
                 = q.Cobegin_explore.Space.configurations
                && s.Cobegin_explore.Space.transitions
                   = q.Cobegin_explore.Space.transitions
                && Cobegin_explore.Space.final_store_reprs full
                   = Cobegin_explore.Space.final_store_reprs p)
        end;
        Option.iter (fun path -> write_metrics path ~t0) metrics;
        report_status ~t0 status;
        exit_code status
        in
        match with_progress progress body with
        | code -> code
        | exception Cobegin_explore.Checkpoint.Corrupt msg ->
            Format.eprintf "checkpoint: %s@." msg;
            1
        | exception e when structured_fault e <> None -> (
            match structured_fault e with
            | Some d ->
                Format.eprintf "aborted by injected fault: %s@." d;
                3
            | None -> assert false)))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Compare full, stubborn-set and sleep-set state-space generation.")
    Term.(
      const run $ file_arg
      $ Cli.options
          ~only:("memory_model" :: "coarsen" :: "jobs" :: budget_fields)
          ()
      $ metrics_arg $ progress_arg $ chaos_arg
      $ checkpoint_arg $ checkpoint_every_arg $ checkpoint_secs_arg
      $ resume_arg)

let races_cmd =
  let run file (o : Pipeline.options) metrics progress chaos =
    match install_chaos chaos with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok () -> (
        match Pipeline.read_program file with
        | Error e ->
            Format.eprintf "%s@." e;
            1
        | Ok prog -> (
            let t0 = Unix.gettimeofday () in
            if metrics <> None then Obs.Metrics.set_enabled true;
            let ctx =
              Cobegin_semantics.Step.make_ctx ~model:o.memory_model prog
            in
            let budget = Pipeline.budget_of_options o in
            match
              with_progress progress (fun () ->
                  Cobegin_analysis.Race.find ~budget ctx)
            with
            | result ->
                Format.printf "%a@." Cobegin_analysis.Race.pp
                  result.Cobegin_analysis.Race.races;
                Option.iter (fun path -> write_metrics path ~t0) metrics;
                report_status ~t0 result.Cobegin_analysis.Race.status;
                exit_code result.Cobegin_analysis.Race.status
            | exception e when structured_fault e <> None -> (
                match structured_fault e with
                | Some d ->
                    Format.eprintf "aborted by injected fault: %s@." d;
                    3
                | None -> assert false)))
  in
  Cmd.v
    (Cmd.info "races" ~doc:"Detect access anomalies by co-enabledness.")
    Term.(
      const run $ file_arg
      $ Cli.options ~only:("memory_model" :: budget_fields) ()
      $ metrics_arg $ progress_arg $ chaos_arg)

let interfere_cmd =
  let no_locksets_arg =
    Arg.(
      value & flag
      & info [ "no-locksets" ]
          ~doc:
            "Disable the lock-invariant refinement: every shared access \
             sees full interference (the precision baseline).")
  in
  let check_soundness_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also run the explicit full engine (under the same limits) \
             and verify that every concrete terminal store binding is \
             contained in the abstract results; prints a \
             \"soundness agreement\" line.  Containment failures make \
             the exit code 1.")
  in
  let domain_arg =
    let parse s =
      Option.to_result (Analyzer.domain_of_string s)
        ~none:
          "domain must be intervals, constants, signs, parity or \
           interval-parity"
    in
    let print ppf d = Format.pp_print_string ppf (Analyzer.domain_name d) in
    Arg.(
      value
      & opt (conv' (parse, print)) Analyzer.Intervals
      & info [ "domain" ] ~docv:"DOMAIN"
          ~doc:
            "Numeric domain: $(b,intervals), $(b,constants), $(b,signs), \
             $(b,parity) or $(b,interval-parity).")
  in
  let run file domain no_locksets check options metrics progress chaos =
    match install_chaos chaos with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok () -> (
        match Pipeline.read_program file with
        | Error e ->
            Format.eprintf "%s@." e;
            1
        | Ok prog -> (
            let t0 = Unix.gettimeofday () in
            if metrics <> None then Obs.Metrics.set_enabled true;
            let budget = Pipeline.budget_of_options options in
            with_progress progress @@ fun () ->
            match
              Interfere.run ~domain ~locksets:(not no_locksets) ~budget
                (Cobegin_static.Lockset.of_program prog)
            with
            | s ->
                Format.printf "%a@." Interfere.pp_summary s;
                let check_failed =
                  if not check then false
                  else begin
                    (* a fresh budget so the abstract run's spend does not
                       eat into the concrete reference run *)
                    let ctx = Cobegin_semantics.Step.make_ctx prog in
                    let r =
                      Cobegin_explore.Space.full
                        ~budget:(Pipeline.budget_of_options options) ctx
                    in
                    if not (Budget.is_complete r.Cobegin_explore.Space.status)
                    then begin
                      Format.printf
                        "soundness agreement: skipped (explicit engine \
                         truncated)@.";
                      false
                    end
                    else begin
                      let bindings =
                        List.concat_map
                          (fun (c : Cobegin_semantics.Config.t) ->
                            Cobegin_semantics.Store.bindings
                              c.Cobegin_semantics.Config.store)
                          (r.Cobegin_explore.Space.final_configs
                          @ r.Cobegin_explore.Space.deadlock_configs
                          @ r.Cobegin_explore.Space.error_configs)
                      in
                      match s.Interfere.check bindings with
                      | [] ->
                          Format.printf
                            "soundness agreement: ok (%d concrete bindings \
                             contained)@."
                            (List.length bindings);
                          false
                      | violations ->
                          Format.printf
                            "soundness agreement: FAILED (%d of %d concrete \
                             bindings escape the abstraction)@."
                            (List.length violations)
                            (List.length bindings);
                          List.iter
                            (fun ((loc : Cobegin_semantics.Value.loc), v) ->
                              Format.printf "  site s%d offset %d: %a@."
                                loc.Cobegin_semantics.Value.l_site
                                loc.Cobegin_semantics.Value.l_off
                                Cobegin_semantics.Value.pp v)
                            violations;
                          true
                    end
                  end
                in
                Option.iter (fun path -> write_metrics path ~t0) metrics;
                report_status ~t0 s.Interfere.status;
                if check_failed then 1 else exit_code s.Interfere.status
            | exception e when structured_fault e <> None -> (
                match structured_fault e with
                | Some d ->
                    Format.eprintf "aborted by injected fault: %s@." d;
                    3
                | None -> assert false)))
  in
  Cmd.v
    (Cmd.info "interfere"
       ~doc:
         "Thread-modular interference analysis: per-process abstract \
          interpretation under a rely-guarantee interference map, \
          iterated to a fixpoint — polynomial where the explicit \
          engines enumerate interleavings.")
    Term.(
      const run $ file_arg $ domain_arg $ no_locksets_arg
      $ check_soundness_arg $ Cli.options ~only:budget_fields ()
      $ metrics_arg $ progress_arg $ chaos_arg)

let parallel_cmd =
  let run file options =
    match Pipeline.read_program file with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok prog ->
        let t0 = Unix.gettimeofday () in
        let report = Pipeline.analyze ~options prog in
        let par = Pipeline.parallelization report in
        Format.printf "%a@." Cobegin_apps.Parallelize.pp_report par;
        List.iter
          (fun f ->
            Format.eprintf "%a@." Pipeline.pp_stage_failure f)
          report.Pipeline.stage_failures;
        report_recovery report;
        report_status ~t0 report.Pipeline.status;
        exit_code ~stage_failures:report.Pipeline.stage_failures
          ~degraded:report.Pipeline.degraded report.Pipeline.status
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Shasha–Snir delay/parallelization report for segment programs.")
    Term.(const run $ file_arg $ options_term)

let examples_cmd =
  let run list name =
    if list then begin
      List.iter print_endline Cobegin_models.Corpus.names;
      0
    end
    else
      match name with
      | None ->
          Format.eprintf "missing example name; try --list@.";
          1
      | Some name -> (
          match Cobegin_models.Corpus.find name with
          | Some src ->
              print_string src;
              0
          | None ->
              Format.eprintf "unknown example %s; available: %s@." name
                (String.concat ", " Cobegin_models.Corpus.names);
              1)
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"Print the available example names, one per line.")
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Example name (fig2, fig5, example8, ...).")
  in
  Cmd.v
    (Cmd.info "examples" ~doc:"Print a built-in example program.")
    Term.(const run $ list_arg $ name_arg)

(* --- serve / client: the persistent analysis daemon --- *)

module Serve = Cobegin_serve.Serve
module Sjson = Cobegin_serve.Sjson

let socket_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCKET" ~doc:"Path of the Unix-domain socket.")

let cache_cap_arg =
  Arg.(
    value
    & opt (Cli.positive int) 64
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:
          "Capacity of the in-memory result cache, in entries (LRU \
           eviction; default 64).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist cache entries under $(docv) (one atomically-written \
           file per run key) and consult them on a memory miss, so warm \
           results survive a daemon restart.")

let serve_cmd =
  let run socket cache_cap cache_dir jobs defaults log log_level trace chaos =
    match install_chaos chaos with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok () -> (
        let log_oc = Option.map open_out log in
        if log_oc <> None then
          Obs.Journal.start ~threshold:log_level ?sink:log_oc ();
        let spans = Option.map (fun _ -> Obs.Span.create ()) trace in
        let finish code =
          (match (trace, spans) with
          | Some path, Some sp -> Obs.Span.write_trace sp path
          | _ -> ());
          Obs.Journal.stop ();
          Option.iter close_out log_oc;
          code
        in
        let t =
          Serve.make
            {
              Serve.socket;
              capacity = cache_cap;
              cache_dir;
              pool = jobs;
              defaults;
              spans;
            }
        in
        let on_listening () =
          Format.eprintf "serving on %s (pool %d, cache %d entries%s)@."
            socket jobs cache_cap
            (match cache_dir with Some d -> ", disk tier " ^ d | None -> "")
        in
        match Serve.run ~on_listening t with
        | () -> finish 0
        | exception Unix.Unix_error (err, fn, arg) ->
            Format.eprintf "serve: %s: %s %s@." fn (Unix.error_message err)
              arg;
            finish 1)
  in
  let jobs_arg =
    Arg.(
      value
      & opt (Cli.positive int) 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains serving requests concurrently (default 1).  \
             Per-request exploration stays sequential: the daemon \
             parallelizes across requests, not within one.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon: a Unix-domain-socket server \
          accepting newline-delimited JSON requests \
          ({\"program\":SRC,\"options\":{...}}, plus \
          {\"op\":\"ping\"|\"stats\"|\"shutdown\"}), replying with the \
          deterministic report JSON and its exit code.  Results are \
          memoized in a content-addressed cache keyed by program digest \
          × options fingerprint × memory model; repeated submissions are \
          cache hits with byte-identical reports.  The budget flags and \
          $(b,--retries) are per-request defaults and caps: requests may \
          lower them, never raise them.")
    Term.(
      const run $ socket_arg $ cache_cap_arg $ cache_dir_arg $ jobs_arg
      $ Cli.options ~only:("retries" :: budget_fields) ()
      $ log_arg $ log_level_arg $ trace_arg $ chaos_arg)

let client_cmd =
  let run socket file options ping stats shutdown =
    let op_request name = Printf.sprintf {|{"op":"%s"}|} name in
    try
      if ping then begin
        print_endline (Serve.request ~socket (op_request "ping"));
        0
      end
      else if stats then begin
        print_endline (Serve.request ~socket (op_request "stats"));
        0
      end
      else if shutdown then begin
        print_endline (Serve.request ~socket (op_request "shutdown"));
        0
      end
      else
        match file with
        | None ->
            Format.eprintf
              "missing FILE (or one of --ping/--stats/--shutdown)@.";
            1
        | Some path -> (
            let source =
              In_channel.with_open_bin path In_channel.input_all
            in
            let line =
              Serve.analyze_line
                ~options_json:(Serve.options_to_json options)
                source
            in
            let resp = Serve.request ~socket line in
            match Sjson.parse resp with
            | Error e ->
                Format.eprintf "client: bad response: %s@." e;
                1
            | Ok j -> (
                let code =
                  Option.bind (Sjson.member "exit_code" j) Sjson.to_int
                in
                match Sjson.member "ok" j with
                | Some (Sjson.Bool true) ->
                    (* the report bytes, verbatim, where analyze --json -
                       would print them; the cache verdict on stderr *)
                    Option.iter print_endline (Serve.response_report_raw resp);
                    Option.iter
                      (fun c -> Format.eprintf "cache: %s@." c)
                      (Option.bind (Sjson.member "cache" j) Sjson.to_string);
                    Option.value code ~default:0
                | _ ->
                    let msg =
                      match
                        Option.bind (Sjson.member "error" j) Sjson.to_string
                      with
                      | Some m -> m
                      | None -> resp
                    in
                    Format.eprintf "error: %s@." msg;
                    Option.value code ~default:1))
    with
    | Unix.Unix_error (err, _, _) ->
        Format.eprintf "client: cannot reach %s: %s@." socket
          (Unix.error_message err);
        1
    | End_of_file ->
        Format.eprintf "client: daemon hung up without replying@.";
        1
    | Sys_error e ->
        Format.eprintf "%s@." e;
        1
  in
  let file_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Source file to submit for analysis.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe; print the reply.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the daemon's request and cache counters.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to stop, then exit.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit one request to a running $(b,coanalyze serve) daemon.  \
          With $(i,FILE), submits it for analysis and prints the raw \
          report JSON on stdout (byte-identical to $(b,analyze --json -)) \
          with the cache verdict ($(b,cache: hit) or $(b,cache: miss)) on \
          stderr, exiting with the analysis's own exit code.")
    Term.(
      const run $ socket_arg $ file_arg $ options_term $ ping_arg
      $ stats_arg $ shutdown_arg)

let main_cmd =
  let doc =
    "static analysis of shared-memory cobegin programs by state-space \
     exploration, stubborn sets and abstract interpretation (Chow & \
     Harrison, ICPP 1992)"
  in
  Cmd.group
    (Cmd.info "coanalyze" ~version:"1.0.0" ~doc)
    [
      analyze_cmd;
      explore_cmd;
      races_cmd;
      interfere_cmd;
      parallel_cmd;
      examples_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
