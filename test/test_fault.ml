(* The chaos harness and everything it is supposed to prove:

   (a) fault-plan specs parse, round-trip and reject typos;
   (b) injection is deterministic: the nth hit of a site fires exactly
       once, at the same point, every run;
   (c) the chaos sweep — every injection site x every engine on corpus
       models, under a wall-clock watchdog: a fault never hangs an
       engine and always surfaces as a structured exception or a sound
       degraded report (regression: a dead parallel worker used to make
       its siblings spin forever);
   (d) the pipeline supervisor: retries, the jobs N -> 1 degradation
       ladder, recovery rungs, and the never-fabricate-Complete rule;
   (e) checkpoint/resume determinism: kill a checkpointed run anywhere
       and the resumed run reports identical final statistics and final
       stores; corrupt/mismatched checkpoints are refused. *)

open Cobegin_explore
open Cobegin_core
open Helpers

(* Run [f] on a spawned domain and fail the test if it does not finish
   within [seconds] — the no-hang guarantee of the harness is exactly
   what this file exists to check, so waiting forever is not an option. *)
let with_watchdog ?(seconds = 60.) name f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        Atomic.set result (Some r))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r -> (
        Domain.join d;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Unix.gettimeofday () -. t0 > seconds then
          Alcotest.failf "%s: watchdog expired — the run hung" name
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
  in
  wait ()

let structured = function
  | Fault.Injected _ | Out_of_memory | Parallel.Worker_failed _ -> true
  | _ -> false

let phil2 = Cobegin_models.Philosophers.program 2 (* source text *)
let phil2_src = Cobegin_models.Corpus.find "phil2" |> Option.get
let phil3_src = Cobegin_models.Corpus.find "phil3" |> Option.get

(* A kill plan is conditional on the targeted worker reaching its n-th
   pop, which a work-stealing schedule does not guarantee on any one
   run: reinstall the plan and retry until it lands.  Returns the
   raised exception for inspection; a run that raises anything counts
   as landed. *)
let expect_worker_failed ?(attempts = 20) spec f =
  let rec go n =
    match with_chaos spec f with
    | exception e -> e
    | _ when n < attempts -> go (n + 1)
    | _ ->
        Alcotest.failf "%s never landed in %d attempts" spec attempts
  in
  go 1

let spec_tests =
  [
    case "a composite spec round-trips through parse/to_spec" (fun () ->
        let spec =
          "crash@space.pop:3,delay@sleep.pop:2=50ms,oom@pipeline.lifetimes:1,kill@worker1:5,flaky@reach.pop:250,seed=7"
        in
        match Fault.parse spec with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok plan -> (
            check_string "canonical spelling" spec (Fault.to_spec plan);
            match Fault.parse (Fault.to_spec plan) with
            | Ok plan' -> check_bool "round-trip" true (plan = plan')
            | Error e -> Alcotest.failf "re-parse failed: %s" e));
    case "typos are rejected, not silently inert" (fun () ->
        List.iter
          (fun bad ->
            match Fault.parse bad with
            | Ok _ -> Alcotest.failf "spec %S should not parse" bad
            | Error _ -> ())
          [
            "";
            "crash@space.pop";
            "crash@no.such.site:1";
            "crash@space.pop:zero";
            "explode@space.pop:1";
            "kill@domain1:5";
            "delay@space.pop:1";
            "crash@parallel.workerX:1";
            "seed=abc";
          ]);
    case "every catalog site is accepted" (fun () ->
        List.iter
          (fun site ->
            match Fault.parse (Printf.sprintf "crash@%s:1" site) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "site %s rejected: %s" site e)
          (Fault.worker_site 3 :: Fault.known_sites));
    case "reason_label and pp_reason know about crashes" (fun () ->
        check_string "label" "crash"
          (Budget.reason_label (Budget.Crash "boom"));
        let s =
          Format.asprintf "%a" Budget.pp_reason (Budget.Crash "boom")
        in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        check_bool "diagnostic in printed form" true (contains s "boom"));
  ]

let determinism_tests =
  [
    case "the nth hit fires exactly once, deterministically" (fun () ->
        let run () = Space.full (ctx_of phil2_src) in
        let clean = run () in
        with_chaos "crash@space.pop:5" (fun () ->
            (match run () with
            | _ -> Alcotest.fail "expected an injected crash"
            | exception Fault.Injected { site; nth; kind } ->
                check_string "site" "space.pop" site;
                check_int "nth" 5 nth;
                check_string "kind" "crash" kind);
            (* counters are global and the action single-fire: the next
               run sails past the already-spent trigger *)
            let again = run () in
            check_bool "second run completes" true
              (Budget.is_complete again.Space.status);
            check_bool "and reports the clean statistics" true
              (again.Space.stats = clean.Space.stats)));
    case "hits counters report how far the run got" (fun () ->
        with_chaos "crash@space.pop:5" (fun () ->
            (try ignore (Space.full (ctx_of phil2_src) : Space.result)
             with Fault.Injected _ -> ());
            check_int "five pops observed" 5
              (List.assoc "space.pop" (Fault.hits ()))));
    case "a delay plan perturbs nothing but the clock" (fun () ->
        let clean = Space.full (ctx_of phil2_src) in
        with_chaos "delay@space.pop:2=5ms" (fun () ->
            let r = Space.full (ctx_of phil2_src) in
            check_bool "identical result" true
              (clean.Space.stats = r.Space.stats
              && final_reprs clean = final_reprs r)));
  ]

(* --- the sweep: every site x every engine it instruments --- *)

let checkpoint_path () = Filename.temp_file "cobegin-test" ".ckpt"

(* Each engine runs every corpus-model context below under every fault
   kind at its own site: the run must either complete or raise a
   structured exception — anything else (a hang, an anonymous abort)
   fails the case. *)
let sweep_engines =
  [
    ("space", "space.pop", fun src -> ignore (Space.full (ctx_of src)));
    ("sleep", "sleep.pop", fun src -> ignore (Sleep.explore (ctx_of src)));
    ( "races",
      "races.pop",
      fun src -> ignore (Cobegin_analysis.Race.find (ctx_of src)) );
    ( "parallel",
      Fault.worker_site 1,
      fun src -> ignore (Parallel.full ~jobs:3 (ctx_of src)) );
    ( "checkpoint",
      "checkpoint.pop",
      fun src ->
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            ignore
              (Checkpoint.full
                 ~cadence:{ Checkpoint.every_configs = 16; every_s = None }
                 ~path (ctx_of src))) );
    ( "checkpoint-save",
      "checkpoint.save",
      fun src ->
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            ignore
              (Checkpoint.full
                 ~cadence:{ Checkpoint.every_configs = 16; every_s = None }
                 ~path (ctx_of src))) );
  ]

let sweep_models =
  [ ("phil2", phil2_src); ("mutex", Cobegin_models.Corpus.find "mutex" |> Option.get) ]

let sweep_tests =
  [
    case "chaos sweep: no engine hangs or aborts unstructured" (fun () ->
        List.iter
          (fun (engine, site, run) ->
            List.iter
              (fun kind ->
                List.iter
                  (fun (model, src) ->
                    let spec = Printf.sprintf "%s@%s:3" kind site in
                    let name =
                      Printf.sprintf "%s/%s/%s" engine model spec
                    in
                    with_chaos spec (fun () ->
                        with_watchdog name (fun () ->
                            match run src with
                            | () -> ()
                            | exception e when structured e -> ()
                            | exception e ->
                                Alcotest.failf
                                  "%s: unstructured escape: %s" name
                                  (Printexc.to_string e))))
                  sweep_models)
              [ "crash"; "oom" ])
          sweep_engines);
    case "chaos sweep: the Petri reachability engine too" (fun () ->
        List.iter
          (fun n ->
            with_chaos "crash@reach.pop:3" (fun () ->
                with_watchdog "reach/crash" (fun () ->
                    match
                      Cobegin_petri.Reach.full
                        (Cobegin_models.Philosophers.net n)
                    with
                    | _ -> Alcotest.fail "expected an injected crash"
                    | exception Fault.Injected _ -> ())))
          [ 2; 3 ]);
    case "a killed parallel worker fails the run, never hangs" (fun () ->
        (* a kill only lands if the targeted worker actually reaches its
           n-th pop — on a work-stealing schedule a worker can
           legitimately finish with fewer; retry with a fresh plan until
           the fault fires (each attempt is still watchdogged) *)
        match
          expect_worker_failed "kill@worker1:2" (fun () ->
              with_watchdog "parallel/kill" (fun () ->
                  ignore (Parallel.full ~jobs:4 (ctx_of phil3_src))))
        with
        | Parallel.Worker_failed { domain; cause; _ } -> (
            check_int "failing domain identified" 1 domain;
            match cause with
            | Fault.Injected { nth; _ } -> check_int "nth pop" 2 nth
            | e ->
                Alcotest.failf "wrong cause: %s" (Printexc.to_string e))
        | e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
    case "worker failure at jobs=2 drains the sibling, never hangs"
      (fun () ->
        (* the regression this PR fixes: an exception in one worker left
           the shared pending counter unbalanced and the sibling
           spinning forever *)
        let ctx = ctx_of phil3_src in
        match
          expect_worker_failed "kill@worker0:1" (fun () ->
              with_watchdog "parallel/raise" (fun () ->
                  ignore (Parallel.full ~jobs:2 ctx)))
        with
        | Parallel.Worker_failed { backtrace; _ } ->
            check_bool "backtrace string attached" true
              (String.length backtrace >= 0)
        | e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  ]

(* --- the pipeline supervisor --- *)

let counts (s : Pipeline.exploration_stats) =
  ( s.Pipeline.configurations,
    s.Pipeline.transitions,
    s.Pipeline.finals,
    s.Pipeline.deadlocks,
    s.Pipeline.errors )

let peterson = Option.get (Cobegin_models.Corpus.find "peterson")

let abstract =
  {
    Pipeline.default_options with
    engine =
      Pipeline.Abstract
        (Cobegin_absint.Analyzer.Intervals, Cobegin_absint.Machine.Control);
  }

let ladder_tests =
  [
    case "a killed worker degrades jobs 4 -> 1 and completes" (fun () ->
        let clean = Pipeline.analyze_source phil3_src in
        (* as above: retry until the kill actually lands on worker 1 *)
        let rec go n =
          let r =
            with_chaos "kill@worker1:3" (fun () ->
                with_watchdog "ladder/kill" (fun () ->
                    Pipeline.analyze_source
                      ~options:{ Pipeline.default_options with jobs = 4 }
                      phil3_src))
          in
          if r.Pipeline.recovery = [] && n < 20 then go (n + 1) else r
        in
        let r = go 1 in
        check_bool "completes" true (Budget.is_complete r.Pipeline.status);
        check_bool "not degraded" false r.Pipeline.degraded;
        check_bool "no stage failure recorded" true
          (r.Pipeline.stage_failures = []);
        check_bool "counts equal the sequential run" true
          (counts r.Pipeline.stats = counts clean.Pipeline.stats);
        match r.Pipeline.recovery with
        | [ { Pipeline.r_stage = "exploration";
              r_action = Pipeline.Degrade_jobs { from_jobs = 4; to_jobs = 1 };
              _
            } ] ->
            ()
        | rungs ->
            Alcotest.failf "unexpected ladder: %s"
              (String.concat "; "
                 (List.map
                    (Format.asprintf "%a" Pipeline.pp_recovery_rung)
                    rungs)));
    case "a crashed stage is retried and the retry completes" (fun () ->
        let clean = Pipeline.analyze_source phil2 in
        with_chaos "crash@space.pop:10" (fun () ->
            let r = Pipeline.analyze_source phil2 in
            check_bool "completes" true
              (Budget.is_complete r.Pipeline.status);
            check_bool "counts equal the clean run" true
              (counts r.Pipeline.stats = counts clean.Pipeline.stats);
            match r.Pipeline.recovery with
            | [ { Pipeline.r_stage = "exploration";
                  r_action = Pipeline.Retry;
                  _
                } ] ->
                ()
            | _ -> Alcotest.fail "expected exactly one Retry rung"));
    case "retries=0: exploration gives up into an honest DEGRADED report"
      (fun () ->
        let clean = Pipeline.analyze_source phil2 in
        with_chaos "crash@space.pop:10" (fun () ->
            let r =
              Pipeline.analyze_source
                ~options:{ Pipeline.default_options with retries = 0 }
                phil2
            in
            check_bool "degraded" true r.Pipeline.degraded;
            (match r.Pipeline.status with
            | Budget.Truncated (Budget.Crash _) -> ()
            | _ -> Alcotest.fail "expected Truncated (Crash _)");
            check_bool "exploration failure recorded" true
              (List.exists
                 (fun f -> f.Pipeline.stage = "exploration")
                 r.Pipeline.stage_failures);
            (match List.rev r.Pipeline.recovery with
            | { Pipeline.r_action = Pipeline.Give_up; _ } :: _ -> ()
            | _ -> Alcotest.fail "last rung must be Give_up");
            (* soundness: a degraded report never overcounts *)
            let (c, t, f, d, e) = counts r.Pipeline.stats
            and (c', t', f', d', e') = counts clean.Pipeline.stats in
            check_bool "degraded counts <= clean counts" true
              (c <= c' && t <= t' && f <= f' && d <= d' && e <= e')));
    case "a crash at abstract.pop is retried into a clean run's report"
      (fun () ->
        let clean = Pipeline.analyze_source ~options:abstract peterson in
        with_chaos "crash@abstract.pop:20" (fun () ->
            let r = Pipeline.analyze_source ~options:abstract peterson in
            (match r.Pipeline.recovery with
            | [ { Pipeline.r_stage = "exploration";
                  r_action = Pipeline.Retry;
                  _
                } ] ->
                ()
            | _ -> Alcotest.fail "expected exactly one Retry rung");
            check_string "everything but the recovery"
              (Report.to_json clean)
              (Report.to_json { r with Pipeline.recovery = [] })));
    case "retries=0: a crash at abstract.pop is an honest DEGRADED report"
      (fun () ->
        with_chaos "crash@abstract.pop:20" (fun () ->
            let r =
              Pipeline.analyze_source
                ~options:{ abstract with retries = 0 }
                peterson
            in
            check_bool "degraded" true r.Pipeline.degraded;
            check_int "exit code" 5 (Report.report_exit_code r)));
    case "a non-result stage that keeps crashing stays non-fatal" (fun () ->
        with_chaos "crash@pipeline.lifetimes:1,crash@pipeline.lifetimes:2"
          (fun () ->
            let r =
              Pipeline.analyze_source
                ~options:{ Pipeline.default_options with retries = 1 }
                phil2
            in
            check_bool "exploration untouched: complete" true
              (Budget.is_complete r.Pipeline.status);
            check_bool "not degraded" false r.Pipeline.degraded;
            check_bool "lifetimes failure recorded" true
              (List.exists
                 (fun f -> f.Pipeline.stage = "lifetimes")
                 r.Pipeline.stage_failures);
            check_bool "lifetimes defaulted to empty" true
              (r.Pipeline.lifetimes = []);
            check_int "two rungs: Retry then Give_up" 2
              (List.length r.Pipeline.recovery)));
    case "pipeline chaos sweep over every stage site" (fun () ->
        (* with one retry every single-shot stage crash is absorbed:
           either the report is clean or it is honestly degraded —
           never a fabricated Complete with missing results *)
        List.iter
          (fun site ->
            with_chaos (Printf.sprintf "crash@%s:1" site) (fun () ->
                with_watchdog ("pipeline/" ^ site) (fun () ->
                    let r =
                      Pipeline.analyze_source
                        ~options:
                          { Pipeline.default_options with find_races = true;
                            lint = true }
                        phil2
                    in
                    if r.Pipeline.degraded then
                      match r.Pipeline.status with
                      | Budget.Truncated (Budget.Crash _) -> ()
                      | _ ->
                          Alcotest.failf
                            "%s: degraded report without Crash status" site
                    else
                      check_bool (site ^ ": recovered or unhit") true
                        (Budget.is_complete r.Pipeline.status))))
          (List.filter
             (fun s -> String.length s > 9 && String.sub s 0 9 = "pipeline.")
             Fault.known_sites));
    case "retries=0: a races give-up is an honest DEGRADED report"
      (fun () ->
        (* the stage crash under the full engine (whose exploration
           hands the set over), and the standalone scan's own crash
           under stubborn *)
        List.iter
          (fun (engine, spec) ->
            with_chaos spec (fun () ->
                let r =
                  Pipeline.analyze_source
                    ~options:
                      { Pipeline.default_options with engine;
                        find_races = true; retries = 0 }
                    phil2
                in
                check_bool (spec ^ ": degraded") true r.Pipeline.degraded;
                check_bool (spec ^ ": status names the races crash") true
                  (r.Pipeline.status
                  = Budget.Truncated
                      (Budget.Crash ("races: injected fault: " ^ spec)));
                check_bool (spec ^ ": no races") true
                  (match r.Pipeline.races with
                  | Some races -> Cobegin_analysis.Race.RaceSet.is_empty races
                  | None -> false);
                check_int (spec ^ ": exit code") 5
                  (Report.report_exit_code r)))
          [
            (Pipeline.Concrete_full, "crash@pipeline.races:1");
            (Pipeline.Concrete_stubborn, "crash@races.pop:3");
          ]);
    case "stage failures carry a backtrace under record_backtrace"
      (fun () ->
        let was = Printexc.backtrace_status () in
        Printexc.record_backtrace true;
        Fun.protect
          ~finally:(fun () -> Printexc.record_backtrace was)
          (fun () ->
            with_chaos "crash@space.pop:10" (fun () ->
                let r =
                  Pipeline.analyze_source
                    ~options:{ Pipeline.default_options with retries = 0 }
                    phil2
                in
                match
                  List.find_opt
                    (fun f -> f.Pipeline.stage = "exploration")
                    r.Pipeline.stage_failures
                with
                | Some f ->
                    check_bool "backtrace captured" true
                      (f.Pipeline.backtrace <> None)
                | None -> Alcotest.fail "no exploration failure")));
  ]

(* --- checkpoint/resume determinism --- *)

(* Write a checkpoint, rewrite its header's version field to [v] and
   keep everything else (the header record { hd_version;
   hd_program_hash } is marshaled like a pair of ints): resuming must
   refuse it with [Corrupt]. *)
let refused_with_version v =
  let ctx = ctx_of phil2_src in
  let path = checkpoint_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (Checkpoint.full ~max_configs:5 ~path ctx : Space.result);
      let magic = "COBEGIN-CKPT\n" in
      let ic = open_in_bin path in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let pos = String.length magic in
      let (version, program_hash) : int * int = Marshal.from_string body pos in
      check_int "this build writes format 6" 6 version;
      let header = Marshal.to_string (v, program_hash) [] in
      let rest =
        let skip = pos + Marshal.total_size (Bytes.of_string body) pos in
        String.sub body skip (String.length body - skip)
      in
      let oc = open_out_bin path in
      output_string oc (magic ^ header ^ rest);
      close_out oc;
      match Checkpoint.resume ~path ctx with
      | _ -> Alcotest.fail "expected Corrupt"
      | exception Checkpoint.Corrupt msg ->
          check_bool "names the version" true
            (contains msg (Printf.sprintf "format version %d" v)))

let ckpt_tests =
  [
    case "kill + resume reports identical statistics on 3 corpus models"
      (fun () ->
        List.iter
          (fun name ->
            let src = Cobegin_models.Corpus.find name |> Option.get in
            let clean = Space.full (ctx_of src) in
            check_bool (name ^ " clean run complete") true
              (Budget.is_complete clean.Space.status);
            let n = clean.Space.stats.Space.configurations in
            let cadence =
              { Checkpoint.every_configs = max 1 (n / 5); every_s = None }
            in
            let kill_at = max 2 (2 * n / 3) in
            let path = checkpoint_path () in
            Fun.protect
              ~finally:(fun () ->
                try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                with_chaos
                  (Printf.sprintf "crash@checkpoint.pop:%d" kill_at)
                  (fun () ->
                    match
                      Checkpoint.full ~cadence ~path (ctx_of src)
                    with
                    | _ -> Alcotest.failf "%s: expected the kill" name
                    | exception Fault.Injected _ -> ());
                let resumed =
                  Checkpoint.resume ~cadence ~path (ctx_of src)
                in
                check_bool (name ^ " resumed run complete") true
                  (Budget.is_complete resumed.Space.status);
                check_bool (name ^ " identical statistics") true
                  (clean.Space.stats = resumed.Space.stats);
                check_bool (name ^ " identical final stores") true
                  (final_reprs clean = final_reprs resumed)))
          [ "phil2"; "phil3"; "phil2r2" ]);
    case "a truncated checkpointed run resumes under a larger budget"
      (fun () ->
        let src = Cobegin_models.Corpus.find "phil3" |> Option.get in
        let clean = Space.full (ctx_of src) in
        let n = clean.Space.stats.Space.configurations in
        let cadence =
          { Checkpoint.every_configs = max 1 (n / 4); every_s = None }
        in
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let partial =
              Checkpoint.full ~max_configs:(n / 2) ~cadence ~path
                (ctx_of src)
            in
            check_bool "first run truncated" false
              (Budget.is_complete partial.Space.status);
            let resumed = Checkpoint.resume ~cadence ~path (ctx_of src) in
            check_bool "resumed run complete" true
              (Budget.is_complete resumed.Space.status);
            check_bool "identical statistics" true
              (clean.Space.stats = resumed.Space.stats);
            check_bool "identical final stores" true
              (final_reprs clean = final_reprs resumed)));
    case "every configuration budget on phil3 resumes to the clean run"
      (fun () ->
        (* A configuration budget can stop the run in the middle of an
           expansion; the saved state must keep the refused successor
           and the unfired actions, or the resumed run loses them. *)
        let ctx = ctx_of (Cobegin_models.Corpus.find "phil3" |> Option.get) in
        let clean = Space.full ctx in
        let n = clean.Space.stats.Space.configurations in
        let clean_finals = final_reprs clean in
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            for m = 2 to n - 1 do
              let partial = Checkpoint.full ~max_configs:m ~path ctx in
              if Budget.is_complete partial.Space.status then
                Alcotest.failf "max_configs %d: first run not truncated" m;
              let resumed = Checkpoint.resume ~path ctx in
              if resumed.Space.stats <> clean.Space.stats then
                Alcotest.failf "max_configs %d: resumed %s, clean %s" m
                  (Format.asprintf "%a" Space.pp_stats resumed.Space.stats)
                  (Format.asprintf "%a" Space.pp_stats clean.Space.stats);
              if final_reprs resumed <> clean_finals then
                Alcotest.failf "max_configs %d: final stores differ" m
            done));
    case "a truncated run resumed twice under the same cap stays truncated"
      (fun () ->
        let ctx = ctx_of (Cobegin_models.Corpus.find "phil3" |> Option.get) in
        let clean = Space.full ctx in
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let first = Checkpoint.full ~max_configs:9 ~path ctx in
            let again = Checkpoint.resume ~max_configs:9 ~path ctx in
            check_bool "still truncated" false
              (Budget.is_complete again.Space.status);
            check_int "no configuration admitted past the cap"
              first.Space.stats.Space.configurations
              again.Space.stats.Space.configurations;
            check_int "no transition fired past the cut"
              first.Space.stats.Space.transitions
              again.Space.stats.Space.transitions;
            let resumed = Checkpoint.resume ~path ctx in
            check_bool "then resumes to the clean run" true
              (clean.Space.stats = resumed.Space.stats)));
    case "a format-3 checkpoint is refused" (fun () ->
        refused_with_version 3);
    case "a format-4 checkpoint is refused" (fun () ->
        refused_with_version 4);
    case "a format-5 checkpoint is refused" (fun () ->
        refused_with_version 5);
    case "a checkpoint is bound to its program" (fun () ->
        let phil2_ctx = ctx_of phil2_src in
        let phil3_ctx =
          ctx_of (Cobegin_models.Corpus.find "phil3" |> Option.get)
        in
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            ignore
              (Checkpoint.full
                 ~cadence:{ Checkpoint.every_configs = 8; every_s = None }
                 ~path phil2_ctx
                : Space.result);
            match Checkpoint.resume ~path phil3_ctx with
            | _ -> Alcotest.fail "expected Corrupt"
            | exception Checkpoint.Corrupt _ -> ()));
    case "garbage on disk is refused, not crashed on" (fun () ->
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "not a checkpoint";
            close_out oc;
            match Checkpoint.resume ~path (ctx_of phil2_src) with
            | _ -> Alcotest.fail "expected Corrupt"
            | exception Checkpoint.Corrupt _ -> ()));
    case "a complete checkpointed run equals Space.full" (fun () ->
        let clean = Space.full (ctx_of phil2_src) in
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let r =
              Checkpoint.full
                ~cadence:{ Checkpoint.every_configs = 16; every_s = None }
                ~path (ctx_of phil2_src)
            in
            check_bool "identical statistics" true
              (clean.Space.stats = r.Space.stats);
            check_bool "identical final stores" true
              (final_reprs clean = final_reprs r)));
  ]

let suite =
  spec_tests @ determinism_tests @ sweep_tests @ ladder_tests @ ckpt_tests
