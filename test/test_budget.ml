(* Resource governance: budgeted exploration degrades gracefully.

   (a) a truncated run still returns non-empty partial statistics;
   (b) partial statistics are monotone in the configuration budget;
   (c) an already-expired deadline truncates immediately, without
       raising and without exploring;
   (d) a crashing pipeline stage yields a structured diagnostic in the
       report instead of aborting the pipeline. *)

open Cobegin_core
open Cobegin_explore
open Helpers

(* fig5 explodes enough (hundreds of configurations) for tiny budgets to
   bite; philosophers-style nets are exercised in test_petri. *)
let big_src = Cobegin_models.Figures.fig5

let truncation_tests =
  [
    case "truncated run returns non-empty partial stats" (fun () ->
        let r = explore_full ~max_configs:5 big_src in
        (match r.Space.status with
        | Budget.Truncated (Budget.Configs 5) -> ()
        | Budget.Truncated _ -> Alcotest.fail "wrong truncation reason"
        | Budget.Complete -> Alcotest.fail "expected truncation");
        check_bool "some configurations" true
          (r.Space.stats.Space.configurations > 0);
        check_bool "within budget" true
          (r.Space.stats.Space.configurations <= 5));
    case "complete run is tagged Complete" (fun () ->
        let r = explore_full big_src in
        check_bool "complete" true (Budget.is_complete r.Space.status));
    case "transition budget truncates too" (fun () ->
        let budget = Budget.create ~max_transitions:10 () in
        let r = Space.full ~budget (ctx_of big_src) in
        match r.Space.status with
        | Budget.Truncated (Budget.Transitions 10) -> ()
        | _ -> Alcotest.fail "expected transition truncation");
    case "the abstract engine reports the transitions its budget counts"
      (fun () ->
        let options =
          {
            Pipeline.default_options with
            engine =
              Pipeline.Abstract
                ( Cobegin_absint.Analyzer.Intervals,
                  Cobegin_absint.Machine.Control );
            max_transitions = Some 100;
          }
        in
        let phil3 = Option.get (Cobegin_models.Corpus.find "phil3") in
        let r = Pipeline.analyze_source ~options phil3 in
        check_bool "truncated by the transition budget" true
          (r.Pipeline.status = Budget.Truncated (Budget.Transitions 100));
        check_int "stats" 100 r.Pipeline.stats.Pipeline.transitions;
        let json = Cobegin_serve.Sjson.parse (Report.to_json r) in
        check_bool "JSON" true
          (Option.bind (Result.to_option json) (fun j ->
               Option.bind
                 (Cobegin_serve.Sjson.member "stats" j)
                 (Cobegin_serve.Sjson.member "transitions"))
          = Some (Cobegin_serve.Sjson.Int 100)));
    case "petri reachability truncates instead of failing" (fun () ->
        let net = Cobegin_models.Philosophers.net 5 in
        let r = Cobegin_petri.Reach.full ~max_states:10 net in
        check_bool "truncated" false
          (Budget.is_complete r.Cobegin_petri.Reach.status);
        check_bool "partial states" true
          (r.Cobegin_petri.Reach.stats.Cobegin_petri.Reach.states > 0));
  ]

let monotonicity_tests =
  [
    qtest ~count:30 "configs are monotone in the budget" seed_gen (fun seed ->
        let prog = random_program seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        let configs_at k =
          (Space.full ~max_configs:k ctx).Space.stats.Space.configurations
        in
        let k = 1 + (seed mod 50) in
        configs_at k <= configs_at (k + 25)
        && configs_at k <= k
        && configs_at (k + 25) <= k + 25);
  ]

let deadline_tests =
  [
    case "expired deadline truncates immediately without raising" (fun () ->
        let budget = Budget.create ~timeout_s:0.0 () in
        let r = Space.full ~budget (ctx_of big_src) in
        (match r.Space.status with
        | Budget.Truncated (Budget.Deadline _) -> ()
        | _ -> Alcotest.fail "expected deadline truncation");
        (* nothing was expanded: only the initial configuration exists *)
        check_int "no exploration" 1 r.Space.stats.Space.configurations;
        check_int "no transitions" 0 r.Space.stats.Space.transitions);
    case "pipeline honours a zero timeout end to end" (fun () ->
        let options =
          { Pipeline.default_options with timeout_s = Some 0.0 }
        in
        let report = Pipeline.analyze ~options (parse big_src) in
        check_bool "truncated" false
          (Budget.is_complete report.Pipeline.status);
        check_bool "no stage crashed" true
          (report.Pipeline.stage_failures = []));
  ]

let stage_isolation_tests =
  [
    case "a crashing stage yields a diagnostic, not an abort" (fun () ->
        let boom = "injected fault" in
        let report =
          with_chaos "crash@pipeline.lifetimes:1" (fun () ->
              Pipeline.analyze
                ~options:{ Pipeline.default_options with retries = 0 }
                (parse Cobegin_models.Figures.fig2))
        in
        match report.Pipeline.stage_failures with
        | [ f ] ->
            check_string "stage" "lifetimes" f.Pipeline.stage;
            check_bool "diagnostic mentions the exception" true
              (let d = f.Pipeline.diagnostic and n = String.length boom in
               let hit = ref false in
               for i = 0 to String.length d - n do
                 if String.sub d i n = boom then hit := true
               done;
               !hit);
            (* downstream stages still ran on the default (empty) input *)
            check_bool "lifetimes defaulted" true
              (report.Pipeline.lifetimes = []);
            check_bool "placements consistent with empty lifetimes" true
              (report.Pipeline.placements = []);
            check_bool "side effects survived" true
              (report.Pipeline.side_effects <> [])
        | [] -> Alcotest.fail "expected a stage failure"
        | _ -> Alcotest.fail "expected exactly one stage failure");
    case "a crashing exploration still yields a report" (fun () ->
        let report =
          with_chaos "crash@pipeline.exploration:1" (fun () ->
              Pipeline.analyze
                ~options:{ Pipeline.default_options with retries = 0 }
                (parse Cobegin_models.Figures.fig2))
        in
        check_bool "failure recorded" true
          (List.exists
             (fun f -> f.Pipeline.stage = "exploration")
             report.Pipeline.stage_failures);
        check_int "empty stats" 0 report.Pipeline.stats.Pipeline.configurations);
  ]

let status_tests =
  [
    case "combine keeps the first truncation" (fun () ->
        let t = Budget.Truncated (Budget.Configs 3) in
        check_bool "id left" true (Budget.combine Budget.Complete t = t);
        check_bool "id right" true (Budget.combine t Budget.Complete = t);
        check_bool "complete" true
          (Budget.is_complete (Budget.combine Budget.Complete Budget.Complete)));
    case "status strings are stable" (fun () ->
        check_string "complete" "complete"
          (Budget.status_to_string Budget.Complete);
        check_string "truncated" "truncated: configuration budget (3)"
          (Budget.status_to_string (Budget.Truncated (Budget.Configs 3))));
  ]

let snapshot_tests =
  [
    case "one headroom entry per configured limit" (fun () ->
        let b = Budget.create ~max_configs:100 ~max_transitions:50 () in
        let hs = Budget.snapshot b ~configs:10 ~transitions:20 in
        check_int "two entries" 2 (List.length hs);
        let by r =
          List.find (fun h -> h.Budget.h_reason = r) hs
        in
        let c = by (Budget.Configs 100) in
        check_bool "configs consumed" true (c.Budget.h_consumed = 10.);
        check_bool "configs limit" true (c.Budget.h_limit = 100.);
        let t = by (Budget.Transitions 50) in
        check_bool "transitions consumed" true (t.Budget.h_consumed = 20.);
        check_bool "transitions limit" true (t.Budget.h_limit = 50.));
    case "unlimited budget has empty headroom" (fun () ->
        check_int "no entries" 0
          (List.length
             (Budget.snapshot (Budget.unlimited ()) ~configs:1_000_000
                ~transitions:1_000_000)));
    case "counter entries saturate exactly when check fires" (fun () ->
        let b = Budget.create ~max_configs:100 () in
        List.iter
          (fun configs ->
            let h =
              List.hd (Budget.snapshot b ~configs ~transitions:0)
            in
            let saturated = h.Budget.h_consumed >= h.Budget.h_limit in
            let fires = Budget.check b ~configs ~transitions:0 <> None in
            check_bool
              (Printf.sprintf "agree at %d configs" configs)
              fires saturated)
          [ 0; 99; 100; 101 ]);
    case "deadline entry tracks the wall clock" (fun () ->
        let b = Budget.create ~timeout_s:3600.0 () in
        let hs = Budget.snapshot b ~configs:0 ~transitions:0 in
        match hs with
        | [ h ] ->
            (match h.Budget.h_reason with
            | Budget.Deadline _ -> ()
            | _ -> Alcotest.fail "expected a deadline entry");
            check_bool "limit is the timeout" true
              (h.Budget.h_limit = 3600.0);
            check_bool "barely consumed" true
              (h.Budget.h_consumed >= 0. && h.Budget.h_consumed < 60.)
        | _ -> Alcotest.fail "expected exactly the deadline entry");
    case "reason labels are stable" (fun () ->
        List.iter
          (fun (r, l) -> check_string l l (Budget.reason_label r))
          [
            (Budget.Configs 1, "configs");
            (Budget.Transitions 1, "transitions");
            (Budget.Deadline 1.0, "deadline_s");
            (Budget.Heap_words 1, "heap_words");
            (Budget.Fuel 1, "fuel");
          ]);
  ]

(* The deadline instant is fixed at budget creation, which is wrong for
   a resumed run: the gap between the original launch and the resume
   would count against the timeout.  [refresh_deadline] re-anchors it;
   [Checkpoint.resume] calls it after the snapshot loads. *)
let refresh_tests =
  [
    case "refresh_deadline re-arms a lapsed timeout" (fun () ->
        let stale = Budget.create ~timeout_s:0.05 ~check_every:1 () in
        let refreshed = Budget.create ~timeout_s:0.05 ~check_every:1 () in
        Unix.sleepf 0.08;
        Budget.refresh_deadline refreshed;
        check_bool "stale budget trips" true
          (Budget.check stale ~configs:0 ~transitions:0 <> None);
        check_bool "refreshed budget has headroom" true
          (Budget.check refreshed ~configs:0 ~transitions:0 = None));
    case "refresh_deadline without a timeout is a no-op" (fun () ->
        let b = Budget.create ~max_configs:10 ~check_every:1 () in
        Budget.refresh_deadline b;
        check_bool "no trip" true
          (Budget.check b ~configs:1 ~transitions:0 = None));
    case "resume under a wall-clock timeout gets the full timeout"
      (fun () ->
        let path = Filename.temp_file "cobegin-budget-ckpt" ".bin" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let clean = Space.full (ctx_of big_src) in
            let cadence =
              { Checkpoint.every_configs = 4; every_s = None }
            in
            let first =
              Checkpoint.full ~max_configs:10 ~cadence ~path (ctx_of big_src)
            in
            check_bool "first run truncated" false
              (Budget.is_complete first.Space.status);
            (* a budget whose creation-time deadline has already lapsed
               by resume time — the pre-fix behavior truncated here
               immediately with Deadline *)
            let budget = Budget.create ~timeout_s:0.2 ~check_every:1 () in
            Unix.sleepf 0.3;
            let resumed =
              Checkpoint.resume ~budget ~cadence ~path (ctx_of big_src)
            in
            check_bool "resumed run completes" true
              (Budget.is_complete resumed.Space.status);
            check_bool "stats equal the clean run" true
              (resumed.Space.stats = clean.Space.stats)));
  ]

let suite =
  truncation_tests @ monotonicity_tests @ deadline_tests @ refresh_tests
  @ stage_isolation_tests @ status_tests @ snapshot_tests
