(* End-to-end pipeline integration over all engines. *)

open Cobegin_core
open Helpers

let engines =
  [
    ("full", Pipeline.Concrete_full);
    ("stubborn", Pipeline.Concrete_stubborn);
    ( "abstract-intervals",
      Pipeline.Abstract
        (Cobegin_absint.Analyzer.Intervals, Cobegin_absint.Machine.Control) );
    ( "abstract-signs",
      Pipeline.Abstract
        (Cobegin_absint.Analyzer.Signs, Cobegin_absint.Machine.Control) );
  ]

let integration_tests =
  [
    case "every engine analyzes every figure" (fun () ->
        List.iter
          (fun (figname, src) ->
            List.iter
              (fun (ename, engine) ->
                let report =
                  Pipeline.analyze
                    ~options:{ Pipeline.default_options with engine }
                    (parse src)
                in
                check_bool
                  (figname ^ "/" ^ ename ^ " ran")
                  true
                  (report.Pipeline.stats.Pipeline.configurations > 0))
              engines)
          Cobegin_models.Figures.all_named);
    case "coarsening option shrinks concrete exploration" (fun () ->
        let prog = parse Cobegin_models.Figures.fig5 in
        let base = Pipeline.analyze prog in
        let coarse =
          Pipeline.analyze
            ~options:{ Pipeline.default_options with coarsen = true }
            prog
        in
        check_bool "smaller" true
          (coarse.Pipeline.stats.Pipeline.configurations
          < base.Pipeline.stats.Pipeline.configurations));
    case "inline option preserves outcome count" (fun () ->
        let prog = parse Cobegin_models.Figures.fig8 in
        let base = Pipeline.analyze prog in
        let inl =
          Pipeline.analyze
            ~options:{ Pipeline.default_options with inline = true }
            prog
        in
        check_int "finals" base.Pipeline.stats.Pipeline.finals
          inl.Pipeline.stats.Pipeline.finals);
    case "run_key is stable across calls under coarsen and inline+coarsen"
      (fun () ->
        List.iter
          (fun (what, options) ->
            List.iter
              (fun (name, src) ->
                let key () = Pipeline.run_key options (parse src) in
                let first = key () in
                check_string (name ^ " under " ^ what) first (key ()))
              Cobegin_models.Corpus.all)
          [
            ("coarsen", { Pipeline.default_options with coarsen = true });
            ( "inline+coarsen",
              { Pipeline.default_options with inline = true; coarsen = true }
            );
          ]);
    case "race option populates the report" (fun () ->
        let report =
          Pipeline.analyze
            ~options:{ Pipeline.default_options with find_races = true }
            (parse Cobegin_models.Figures.mutex_racy)
        in
        match report.Pipeline.races with
        | Some races ->
            check_bool "non-empty" true
              (not (Cobegin_analysis.Race.RaceSet.is_empty races))
        | None -> Alcotest.fail "race scan missing");
    case "report pretty-printer runs on all figures" (fun () ->
        List.iter
          (fun (_, src) ->
            let report = Pipeline.analyze (parse src) in
            let text = Format.asprintf "%a" Pipeline.pp_report report in
            check_bool "nonempty" true (String.length text > 0))
          Cobegin_models.Figures.all_named);
    case "ill-formed programs are rejected before running" (fun () ->
        match
          Pipeline.analyze_source "proc main() { undeclared = 1; }"
        with
        | exception Cobegin_lang.Check.Ill_formed _ -> ()
        | _ -> Alcotest.fail "expected Ill_formed");
    case "producer-consumer runs to completion" (fun () ->
        let report =
          Pipeline.analyze_source (Cobegin_models.Figures.producer_consumer 2)
        in
        check_int "no errors" 0 report.Pipeline.stats.Pipeline.errors;
        check_int "no deadlocks" 0 report.Pipeline.stats.Pipeline.deadlocks);
  ]

(* The bytes of a report's top-level [static] or [interference] value:
   from its key to the key that follows it. *)
let json_section json key =
  let index_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then Alcotest.failf "%s not in report" sub
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let next = if key = "static" then "interference" else "telemetry" in
  let start = index_from 0 (Printf.sprintf ",%S:" key) in
  String.sub json start (index_from start (Printf.sprintf ",%S:" next) - start)

let lint_stage_tests =
  [
    case "lint option runs the static pre-stage" (fun () ->
        let report =
          Pipeline.analyze
            ~options:{ Pipeline.default_options with lint = true }
            (parse Cobegin_models.Figures.mutex_racy)
        in
        match report.Pipeline.static with
        | Some r ->
            check_bool "static races found" true
              (r.Cobegin_static.Lint.races <> [])
        | None -> Alcotest.fail "static stage missing");
    case "lint stage is off by default" (fun () ->
        let report =
          Pipeline.analyze (parse Cobegin_models.Figures.mutex_racy)
        in
        check_bool "no static report" true (report.Pipeline.static = None));
    case "a crashing lint stage degrades, not aborts" (fun () ->
        let report =
          with_chaos "crash@pipeline.static-lint:1" (fun () ->
              Pipeline.analyze
                ~options:
                  { Pipeline.default_options with lint = true; retries = 0 }
                (parse Cobegin_models.Figures.mutex))
        in
        check_bool "static report absent" true (report.Pipeline.static = None);
        check_bool "failure recorded" true
          (List.exists
             (fun (f : Pipeline.stage_failure) -> f.Pipeline.stage = "static-lint")
             report.Pipeline.stage_failures);
        (* the rest of the pipeline still ran *)
        check_bool "exploration ran" true
          (report.Pipeline.stats.Pipeline.configurations > 0));
    case "the shared static base answers as a fresh one does (corpus)"
      (fun () ->
        let options =
          { Pipeline.default_options with lint = true; interfere = true }
        in
        List.iter
          (fun (name, src) ->
            let r = Pipeline.analyze ~options (parse src) in
            let ls = Cobegin_static.Lockset.of_program r.Pipeline.program in
            let lint = Cobegin_static.Lint.run ls in
            let inter = Cobegin_absint.Interfere.run ls in
            match (r.Pipeline.static, r.Pipeline.interference) with
            | Some l, Some i ->
                check_bool (name ^ ": lint findings") true
                  (l.Cobegin_static.Lint.findings
                  = lint.Cobegin_static.Lint.findings);
                check_bool (name ^ ": interference verdicts") true
                  (i.Cobegin_absint.Interfere.verdicts
                   = inter.Cobegin_absint.Interfere.verdicts
                  && i.Cobegin_absint.Interfere.bindings
                     = inter.Cobegin_absint.Interfere.bindings)
            | _ -> Alcotest.failf "%s: a static stage is missing" name)
          Cobegin_models.Corpus.all);
    case "a crash in one consumer of the static base spares the other"
      (fun () ->
        let options =
          {
            Pipeline.default_options with
            lint = true;
            interfere = true;
            retries = 0;
          }
        in
        List.iter
          (fun name ->
            let src = Option.get (Cobegin_models.Corpus.find name) in
            let run () = Pipeline.analyze_source ~options src in
            let json r = Cobegin_core.Report.to_json r in
            let clean = json (run ()) in
            let lint_crashed =
              with_chaos "crash@pipeline.static-lint:1" run
            in
            check_bool (name ^ ": no static section") true
              (lint_crashed.Pipeline.static = None);
            check_bool (name ^ ": one stage failure, static-lint") true
              (List.map
                 (fun (f : Pipeline.stage_failure) -> f.Pipeline.stage)
                 lint_crashed.Pipeline.stage_failures
              = [ "static-lint" ]);
            check_string (name ^ ": interference section")
              (json_section clean "interference")
              (json_section (json lint_crashed) "interference");
            let interfere_crashed =
              with_chaos "crash@pipeline.interfere:1" run
            in
            check_string (name ^ ": static section")
              (json_section clean "static")
              (json_section (json interfere_crashed) "static"))
          [ "fig2"; "mutex"; "peterson"; "phil2" ]);
  ]

let stubborn_vs_full_analysis =
  [
    qtest ~count:25 "pipeline analyses agree between full and stubborn logs"
      seed_gen
      (fun seed ->
        (* the *analyses* (not the raw logs) must agree, because stubborn
           exploration preserves all behaviours relevant to them *)
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 2;
            with_loops = false;
          }
        in
        let prog = random_program ~cfg seed in
        let report e =
          Pipeline.analyze
            ~options:{ Pipeline.default_options with engine = e }
            prog
        in
        let full = report Pipeline.Concrete_full in
        let stub = report Pipeline.Concrete_stubborn in
        if
          not
            (Budget.is_complete full.Pipeline.status
            && Budget.is_complete stub.Pipeline.status)
        then true
        else
            (* placements must agree on shared-vs-local for shared vars *)
            let sharedness r =
              List.filter_map
                (fun (i : Cobegin_analysis.Lifetime.info) ->
                  match i.Cobegin_analysis.Lifetime.placement with
                  | Cobegin_analysis.Lifetime.Shared ->
                      Some i.Cobegin_analysis.Lifetime.site
                  | _ -> None)
                r.Pipeline.lifetimes
              |> List.sort_uniq compare
            in
            (* stubborn may observe fewer interleavings but must find every
               conflicting-shared object the analyses rely on: sharedness
               from stubborn is a subset of full *)
            List.for_all
              (fun s -> List.mem s (sharedness full))
              (sharedness stub));
  ]

(* The CLI exit code, computed in one place with a fixed severity
   order: 5 degraded > 3 stage crash > 2 truncation > 4 lint findings
   > 0 clean (1 is reserved for usage/input errors upstream). *)
let exit_code_tests =
  let crash =
    {
      Pipeline.stage = "races";
      diagnostic = "boom";
      backtrace = None;
      flight = [];
    }
  in
  let trunc = Budget.Truncated (Budget.Configs 5) in
  [
    case "exit codes rank degraded > crash > truncation > lints > clean"
      (fun () ->
        check_int "clean" 0 (Pipeline.exit_code Budget.Complete);
        check_int "lints alone" 4
          (Pipeline.exit_code ~static_findings:true Budget.Complete);
        check_int "truncation alone" 2 (Pipeline.exit_code trunc);
        check_int "crash alone" 3
          (Pipeline.exit_code ~stage_failures:[ crash ] Budget.Complete);
        check_int "degraded alone" 5
          (Pipeline.exit_code ~degraded:true Budget.Complete);
        check_int "truncation beats lints" 2
          (Pipeline.exit_code ~static_findings:true trunc);
        check_int "crash beats truncation and lints" 3
          (Pipeline.exit_code ~stage_failures:[ crash ] ~static_findings:true
             trunc);
        check_int "degraded beats everything" 5
          (Pipeline.exit_code ~degraded:true ~stage_failures:[ crash ]
             ~static_findings:true trunc));
  ]

(* The SC-only analyses refuse to run under a relaxed model instead of
   silently returning unsound verdicts. *)
let model_support_tests =
  let peterson =
    match Cobegin_models.Corpus.find "peterson" with
    | Some src -> src
    | None -> Alcotest.fail "peterson not in corpus"
  in
  [
    case "abstract engine refuses TSO" (fun () ->
        let options =
          {
            Pipeline.default_options with
            engine =
              Pipeline.Abstract
                (Cobegin_absint.Analyzer.Intervals, Cobegin_absint.Machine.Control);
            memory_model = Cobegin_semantics.Step.Tso;
          }
        in
        match Pipeline.analyze_source ~options peterson with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "abstract engine accepted TSO");
    case "interference analysis refuses PSO" (fun () ->
        let options =
          {
            Pipeline.default_options with
            interfere = true;
            memory_model = Cobegin_semantics.Step.Pso;
          }
        in
        match Pipeline.analyze_source ~options peterson with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "interfere accepted PSO");
    case "concrete engines run the relaxed models end to end" (fun () ->
        let options =
          {
            Pipeline.default_options with
            memory_model = Cobegin_semantics.Step.Tso;
            find_races = true;
          }
        in
        let report = Pipeline.analyze_source ~options peterson in
        check_bool "complete" true (Budget.is_complete report.Pipeline.status);
        (* the TSO mutual-exclusion violations surface as error configs *)
        check_bool "assertion failures found" true
          (report.Pipeline.stats.Pipeline.errors > 0));
  ]

(* The sequential full engine runs the race scan as a visitor of its own
   BFS; the stubborn engine keeps a standalone full pass.  Both must
   report exactly what a standalone Race.find reports under the same
   budget — race set and status — complete or truncated. *)
let race_fold_tests =
  let module Race = Cobegin_analysis.Race in
  let module Step = Cobegin_semantics.Step in
  let pipeline ?(engine = Pipeline.Concrete_full) ?(max_configs = 500_000)
      ?(model = Step.Sc) prog =
    let r =
      Pipeline.analyze
        ~options:
          {
            Pipeline.default_options with
            engine;
            find_races = true;
            max_configs;
            memory_model = model;
          }
        prog
    in
    (Option.get r.Pipeline.races, r.Pipeline.status)
  in
  let standalone ?(max_configs = 500_000) ?(model = Step.Sc) prog =
    let r = Race.find ~max_configs (Step.make_ctx ~model prog) in
    (r.Race.races, r.Race.status)
  in
  let same (r1, s1) (r2, s2) = Race.RaceSet.equal r1 r2 && s1 = s2 in
  [
    case "folded races equal Race.find on the corpus under sc/tso/pso"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let prog = parse src in
            List.iter
              (fun model ->
                check_bool
                  (Printf.sprintf "%s under %s" name (Step.model_name model))
                  true
                  (same (pipeline ~model prog) (standalone ~model prog)))
              [ Step.Sc; Step.Tso; Step.Pso ])
          Cobegin_models.Corpus.all);
    case "folded races equal the stubborn engine's standalone pass"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let prog = parse src in
            check_bool name true
              (same (pipeline prog)
                 (pipeline ~engine:Pipeline.Concrete_stubborn prog)))
          Cobegin_models.Corpus.all;
        let fig5 = parse Cobegin_models.Figures.fig5 in
        List.iter
          (fun max_configs ->
            let folded = pipeline ~max_configs fig5 in
            let label = Printf.sprintf "fig5 at max_configs %d" max_configs in
            check_bool (label ^ ": stubborn") true
              (same folded
                 (pipeline ~engine:Pipeline.Concrete_stubborn ~max_configs
                    fig5));
            check_bool (label ^ ": Race.find") true
              (same folded (standalone ~max_configs fig5)))
          [ 5; 50; 200 ]);
    case "the stubborn engine's races cover what its persistent sets skip"
      (fun () ->
        (* the looping process is a singleton persistent set at every
           step, so the stubborn exploration never reaches the two
           poised writes of x; its standalone full pass still does *)
        let prog =
          parse
            "proc main() { var x = 0; cobegin { var t = 0; while (true) { \
             t = 1 - t; } } { var a = 0; x = 1; } { var b = 0; x = 2; } \
             coend; }"
        in
        let stubborn = pipeline ~engine:Pipeline.Concrete_stubborn prog in
        check_bool "a write/write race on x" true
          (Race.RaceSet.exists (fun r -> r.Race.write_write) (fst stubborn));
        check_bool "same as the full engine" true
          (same stubborn (pipeline prog)));
    qtest ~count:30 "random programs: folded races equal Race.find" seed_gen
      (fun seed ->
        let prog = random_program seed in
        same (pipeline prog) (standalone prog));
  ]

let suite =
  integration_tests @ lint_stage_tests @ stubborn_vs_full_analysis
  @ exit_code_tests @ model_support_tests @ race_fold_tests
