(* Telemetry (lib/obs): spans nest and export valid Chrome trace JSON,
   counters are monotone and reset cleanly, histograms bucket on the
   log scale, every engine loop journals progress and the heartbeat
   paces itself under a fake clock,
   and — the contract the engines rely on — everything is a cheap no-op
   while telemetry is disabled. *)

open Helpers
module Metrics = Cobegin_obs.Metrics
module Span = Cobegin_obs.Span
module Journal = Cobegin_obs.Journal
module Space = Cobegin_explore.Space

(* [json_valid] and [contains] moved to Helpers — the report/manifest/
   journal suites validate their artifacts through the same checker. *)

(* Run [f] with telemetry enabled and fresh values, restoring the
   disabled default afterwards so other suites see pristine state. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let span_tests =
  [
    case "spans nest: parent ids follow the open stack" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        let outer = Span.enter t "outer" in
        now := 1.0;
        let inner = Span.enter t "inner" in
        now := 2.0;
        Span.exit t inner;
        now := 5.0;
        Span.exit t outer;
        let evs = Span.events t in
        check_int "two events" 2 (List.length evs);
        let inner_ev = List.nth evs 0 and outer_ev = List.nth evs 1 in
        check_string "inner first (completion order)" "inner"
          inner_ev.Span.ev_name;
        check_string "outer second" "outer" outer_ev.Span.ev_name;
        check_int "inner's parent is outer" outer_ev.Span.ev_id
          inner_ev.Span.ev_parent;
        check_int "outer is a root" (-1) outer_ev.Span.ev_parent;
        check_bool "inner duration" true (inner_ev.Span.ev_dur = 1.0);
        check_bool "outer duration" true (outer_ev.Span.ev_dur = 5.0));
    case "exit closes the spans still open inside" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        let outer = Span.enter t "outer" in
        let _inner = Span.enter t "inner" in
        now := 3.0;
        Span.exit t outer;
        check_int "both completed" 2 (Span.event_count t);
        (* closing again is a no-op *)
        Span.exit t outer;
        check_int "still two" 2 (Span.event_count t));
    case "with_span records even when f raises" (fun () ->
        let t = Span.create ~clock:(fun () -> 0.0) () in
        (try Span.with_span t "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        check_int "recorded" 1 (Span.event_count t);
        check_string "named" "boom"
          (List.hd (Span.events t)).Span.ev_name);
    case "trace export is valid JSON carrying every span" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        Span.with_span t "parse \"quoted\"" (fun () ->
            now := 0.5;
            Span.with_span t "explore" (fun () -> now := 1.5));
        let json = Span.to_trace_json t in
        check_bool "valid JSON" true (json_valid json);
        check_bool "has traceEvents" true (contains json "\"traceEvents\"");
        List.iter
          (fun name -> check_bool name true (contains json name))
          [ "explore"; "ph" ]);
    case "durations lists completed spans in completion order" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        Span.with_span t "a" (fun () -> now := 2.0);
        Span.with_span t "b" (fun () -> now := 3.0);
        match Span.durations t with
        | [ ("a", da); ("b", db) ] ->
            check_bool "a took 2s" true (da = 2.0);
            check_bool "b took 1s" true (db = 1.0)
        | _ -> Alcotest.fail "wrong shape");
    case "one shared recorder: each domain gets its own stack and lane"
      (fun () ->
        let t = Span.create ~clock:(fun () -> 0.0) () in
        let worker i () =
          Span.with_span t (Printf.sprintf "worker%d" i) (fun () ->
              Span.with_span t "inner" ignore)
        in
        let domains = Array.init 3 (fun i -> Domain.spawn (worker i)) in
        Array.iter Domain.join domains;
        let evs = Span.events t in
        check_int "3 domains x 2 spans" 6 (List.length evs);
        (* each inner's parent is its own domain's worker span, and the
           lanes (ev_domain) are distinct per worker *)
        let lanes =
          List.filter_map
            (fun ev ->
              if ev.Span.ev_name <> "inner" then Some ev.Span.ev_domain
              else None)
            evs
          |> List.sort_uniq Int.compare
        in
        check_int "3 distinct lanes" 3 (List.length lanes);
        List.iter
          (fun ev ->
            if ev.Span.ev_name = "inner" then begin
              let parent =
                List.find (fun p -> p.Span.ev_id = ev.Span.ev_parent) evs
              in
              check_int "parent on same lane" ev.Span.ev_domain
                parent.Span.ev_domain;
              check_bool "parent is a worker span" true
                (String.length parent.Span.ev_name > 6
                && String.sub parent.Span.ev_name 0 6 = "worker")
            end)
          evs;
        let json = Span.to_trace_json t in
        check_bool "trace valid" true (json_valid json);
        check_bool "tid lanes present" true (contains json "\"tid\":"));
  ]

let metrics_tests =
  [
    case "counters are monotone and reset to zero" (fun () ->
        with_metrics (fun () ->
            let c = Metrics.counter "test.counter" in
            Metrics.incr c;
            Metrics.incr c;
            Metrics.add c 3;
            check_int "5 after 2 incr + add 3" 5 (Metrics.counter_value c);
            (try
               Metrics.add c (-1);
               Alcotest.fail "negative add must raise"
             with Invalid_argument _ -> ());
            Metrics.reset ();
            check_int "reset" 0 (Metrics.counter_value c);
            (* the handle survives the reset *)
            Metrics.incr c;
            check_int "live after reset" 1 (Metrics.counter_value c)));
    case "find-or-create: same name, same handle" (fun () ->
        with_metrics (fun () ->
            let a = Metrics.counter "test.shared" in
            let b = Metrics.counter "test.shared" in
            Metrics.incr a;
            check_int "visible through both" 1 (Metrics.counter_value b)));
    case "histogram buckets on the log scale" (fun () ->
        check_int "0 -> bucket 0" 0 (Metrics.bucket_of 0);
        check_int "1 -> lower 1" 1 (Metrics.bucket_lower (Metrics.bucket_of 1));
        check_int "2 -> lower 2" 2 (Metrics.bucket_lower (Metrics.bucket_of 2));
        check_int "3 -> lower 2" 2 (Metrics.bucket_lower (Metrics.bucket_of 3));
        check_int "4 -> lower 4" 4 (Metrics.bucket_lower (Metrics.bucket_of 4));
        check_int "1000 -> lower 512" 512
          (Metrics.bucket_lower (Metrics.bucket_of 1000));
        with_metrics (fun () ->
            let h = Metrics.histogram "test.hist" in
            List.iter (Metrics.observe h) [ 1; 2; 3; 4; 1000 ];
            let snap = Metrics.snapshot () in
            let hs = List.assoc "test.hist" snap.Metrics.s_histograms in
            check_int "count" 5 hs.Metrics.hs_count;
            check_int "sum" 1010 hs.Metrics.hs_sum;
            check_int "max" 1000 hs.Metrics.hs_max;
            check_int "bucket 2 holds 2 and 3" 2
              (List.assoc 2 hs.Metrics.hs_buckets);
            check_int "bucket 512 holds 1000" 1
              (List.assoc 512 hs.Metrics.hs_buckets)));
    case "snapshot JSON is valid" (fun () ->
        with_metrics (fun () ->
            Metrics.incr (Metrics.counter "test.c");
            Metrics.set (Metrics.gauge "test.g") 7;
            Metrics.observe (Metrics.histogram "test.h") 42;
            check_bool "valid" true
              (json_valid (Metrics.to_json (Metrics.snapshot ())))));
    case "histogram hammered from 4 domains loses no observation" (fun () ->
        with_metrics (fun () ->
            let h = Metrics.histogram "test.hammer" in
            let per_domain = 10_000 in
            let worker () =
              for i = 1 to per_domain do
                Metrics.observe h (i land 1023)
              done
            in
            let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
            Array.iter Domain.join domains;
            let snap = Metrics.snapshot () in
            let hs = List.assoc "test.hammer" snap.Metrics.s_histograms in
            check_int "count" (4 * per_domain) hs.Metrics.hs_count;
            let expected_sum =
              let s = ref 0 in
              for i = 1 to per_domain do
                s := !s + (i land 1023)
              done;
              4 * !s
            in
            check_int "sum" expected_sum hs.Metrics.hs_sum));
    case "disabled: mutations are no-ops and allocate nothing" (fun () ->
        Metrics.set_enabled false;
        Metrics.reset ();
        let c = Metrics.counter "test.noop" in
        let g = Metrics.gauge "test.noop.g" in
        let h = Metrics.histogram "test.noop.h" in
        let before = Gc.minor_words () in
        for i = 1 to 100_000 do
          Metrics.incr c;
          Metrics.set g i;
          Metrics.observe h i
        done;
        let allocated = Gc.minor_words () -. before in
        check_int "counter untouched" 0 (Metrics.counter_value c);
        check_int "gauge untouched" 0 (Metrics.gauge_value g);
        (* 300k guarded no-ops must not allocate per call; leave slack
           for the Gc.minor_words calls themselves *)
        check_bool
          (Printf.sprintf "allocation-free (%.0f words)" allocated)
          true (allocated < 1_000.));
  ]

let field k (e : Journal.event) = List.assoc_opt k e.Journal.e_fields

let progress_of engine evs =
  List.filter (fun e -> e.Journal.e_name = engine ^ ".progress") evs

let phil3_src = Option.get (Cobegin_models.Corpus.find "phil3")
let phil3 () = ctx_of phil3_src

let progress_tests =
  let budget = Budget.create ~max_configs:1000 () in
  (* a progress event of the space kernel at fake time [t] *)
  let at now (t, n) =
    now := t;
    Journal.progress "space" ~configurations:n ~frontier:1
      ~transitions:(2 * n) ~budget []
  in
  [
    case "heartbeat prints at most once a second under a fake clock"
      (fun () ->
        let now = ref 0.0 in
        let lines =
          lines_written (fun oc ->
              with_journal ~clock:(fun () -> !now) ~progress:oc (fun () ->
                  List.iter (at now)
                    [
                      (0.2, 10); (0.9, 20); (1.0, 30); (1.5, 40); (1.99, 50);
                      (2.0, 60); (2.5, 70); (3.1, 80); (3.2, 90);
                    ];
                  now := 9.0;
                  Journal.emit "space.done" []))
        in
        check_int "lines at 1.0, 2.0 and 3.1 only" 3 (List.length lines);
        let first = List.hd lines in
        check_bool first true (contains first "[space.progress]");
        check_bool "not before the first second" true
          (contains first "1.0s configs=30 frontier=1 transitions=60");
        check_bool "the rate since the start" true (contains first "(60/s)");
        check_bool "the budget headroom" true
          (contains first "budget configs=30/1000");
        check_bool "the third line is 3.1 s in" true
          (contains (List.nth lines 2) "3.1s configs=80"));
    case "each engine's heartbeat reads its own rate" (fun () ->
        (* counts restart at zero with each engine: a rate since the
           journal started would read the second engine far too slow *)
        let now = ref 0.0 in
        let tick engine t transitions =
          now := t;
          Journal.progress engine ~configurations:1 ~frontier:1 ~transitions
            []
        in
        let lines =
          lines_written (fun oc ->
              with_journal ~clock:(fun () -> !now) ~progress:oc (fun () ->
                  tick "space" 1.0 1000;
                  tick "space" 9.0 9000;
                  now := 10.0;
                  Journal.emit "space.done" [];
                  (* the same kernel again, started at the done event *)
                  tick "space" 10.5 250;
                  tick "space" 12.0 4000;
                  (* another engine with no done event between *)
                  tick "parallel" 13.5 3000))
        in
        List.iter2
          (fun l (at, rate) ->
            check_bool l true (contains l at && contains l rate))
          lines
          [
            ("1.0s", "(1000/s)");
            ("9.0s", "(1000/s)");
            ("10.5s", "(500/s)");
            ("12.0s", "(2000/s)");
            ("13.5s", "(2000/s)");
          ]);
    case "samples carry rate, pools and budget headroom" (fun () ->
        (* a clock a second later at each read: every event prints *)
        let now = ref 0.0 in
        let clock () =
          now := !now +. 1.0;
          !now
        in
        let evs = ref [] in
        let lines =
          lines_written (fun oc ->
              with_journal ~capacity:10_000 ~clock ~progress:oc (fun () ->
                  ignore (Space.full ~budget (phil3 ()));
                  evs := progress_of "space" (Journal.ring_events ())))
        in
        check_int "557 configurations: two progress events" 2
          (List.length !evs);
        List.iter
          (fun e ->
            check_bool "the configs limit" true
              (field "budget.configs.limit" e = Some (Journal.Int 1000));
            check_bool "consumed = configurations" true
              (field "budget.configs" e = field "configurations" e))
          !evs;
        check_int "a line per progress event" 2 (List.length lines);
        List.iter
          (fun l ->
            List.iter
              (fun part ->
                check_bool (l ^ " has " ^ part) true (contains l part))
              [ "/s) heap="; " procs="; " stores="; " budget configs=" ])
          lines);
    case "jsonl sink writes one valid object per line" (fun () ->
        let lines =
          lines_written (fun oc ->
              with_journal ~threshold:Journal.Debug ~sink:oc (fun () ->
                  ignore (Space.full (phil3 ()))))
        in
        List.iter (fun l -> check_bool "line valid" true (json_valid l)) lines;
        check_int "557 configurations: two progress events" 2
          (List.length
             (List.filter (fun l -> contains l "\"space.progress\"") lines)));
    case "an info sink drops progress events, the heartbeat keeps them"
      (fun () ->
        let now = ref 0.0 in
        let heartbeat = ref [] in
        let sink =
          lines_written (fun sink ->
              heartbeat :=
                lines_written (fun progress ->
                    with_journal ~threshold:Journal.Info
                      ~clock:(fun () -> !now)
                      ~sink ~progress
                      (fun () ->
                        at now (1.5, 10);
                        Journal.emit "space.done" [])))
        in
        check_int "the sink holds the done event only" 1 (List.length sink);
        check_bool "and not the progress event" false
          (contains (List.hd sink) "progress");
        check_int "the heartbeat printed the progress event" 1
          (List.length !heartbeat));
    case "every engine loop journals progress with its counts" (fun () ->
        let open Cobegin_explore in
        (* the sampled loops need a few hundred pops: phil4 for sleep and
           for worker 0 of two *)
        let phil4 = parse (Cobegin_models.Philosophers.program 4) in
        let ctx4 () = Cobegin_semantics.Step.make_ctx phil4 in
        let fig5 = parse Cobegin_models.Figures.fig5 in
        let path = Filename.temp_file "obs" ".ckpt" in
        let runs =
          [
            ("space", fun () -> ignore (Space.full (phil3 ())));
            ("sleep", fun () -> ignore (Sleep.explore (ctx4 ())));
            ( "checkpoint",
              fun () -> ignore (Checkpoint.full ~path (phil3 ())) );
            ( "races",
              fun () -> ignore (Cobegin_analysis.Race.find (phil3 ())) );
            ("parallel", fun () -> ignore (Parallel.full ~jobs:2 (ctx4 ())));
            ( "abstract",
              fun () ->
                ignore (Cobegin_absint.Analyzer.analyze (parse phil3_src)) );
            ( "interfere",
              fun () ->
                ignore
                  (Cobegin_absint.Interfere.run
                     (Cobegin_static.Lockset.of_program fig5)) );
          ]
        in
        List.iter
          (fun (engine, run) ->
            let evs =
              with_journal ~capacity:100_000 (fun () ->
                  run ();
                  Journal.ring_events ())
            in
            match progress_of engine evs with
            | [] -> Alcotest.failf "no %s.progress event" engine
            | ps ->
                List.iter
                  (fun e ->
                    check_bool (engine ^ " at debug") true
                      (e.Journal.e_level = Journal.Debug);
                    List.iter
                      (fun k ->
                        check_bool
                          (Printf.sprintf "%s.progress carries %s" engine k)
                          true
                          (match field k e with
                          | Some (Journal.Int _) -> true
                          | _ -> false))
                      [ "configurations"; "frontier"; "transitions" ])
                  ps)
          runs;
        if Sys.file_exists path then Sys.remove path);
  ]

let pipeline_tests =
  [
    case "pipeline spans cover every stage; report carries max_frontier"
      (fun () ->
        let open Cobegin_core in
        let spans = Span.create () in
        let options =
          { Pipeline.default_options with find_races = true }
        in
        let report =
          Pipeline.analyze ~options ~spans
            (parse Cobegin_models.Figures.fig2)
        in
        let stages = List.map fst report.Pipeline.telemetry in
        List.iter
          (fun s ->
            check_bool ("stage " ^ s) true (List.mem s stages))
          [ "exploration"; "side-effects"; "dependences"; "races" ];
        check_bool "max_frontier populated" true
          (report.Pipeline.stats.Pipeline.max_frontier >= 1);
        check_bool "trace from pipeline spans is valid JSON" true
          (json_valid (Span.to_trace_json spans)));
    case "a reused recorder reports only the new run's stages" (fun () ->
        let open Cobegin_core in
        let spans = Span.create () in
        let prog = parse Cobegin_models.Figures.fig2 in
        let r1 = Pipeline.analyze ~spans prog in
        let r2 = Pipeline.analyze ~spans prog in
        check_int "same stage count both runs"
          (List.length r1.Pipeline.telemetry)
          (List.length r2.Pipeline.telemetry);
        check_int "recorder accumulated both"
          (2 * List.length r1.Pipeline.telemetry)
          (Span.event_count spans));
    case "two runs in one process: Metrics.reset scopes counters per run"
      (fun () ->
        (* the serve-daemon bugfix pinned: without the per-request
           reset, the second run's snapshot reports the sum of both *)
        with_metrics (fun () ->
            let open Cobegin_core in
            let prog = parse Cobegin_models.Figures.fig2 in
            let expansions = Metrics.counter "space.expansions" in
            let _ = Pipeline.analyze prog in
            let first = Metrics.counter_value expansions in
            check_bool "first run counted" true (first > 0);
            let _ = Pipeline.analyze prog in
            check_int "without reset, runs accumulate" (2 * first)
              (Metrics.counter_value expansions);
            Metrics.reset ();
            let _ = Pipeline.analyze prog in
            check_int "after reset, the snapshot is one run's worth" first
              (Metrics.counter_value expansions)));
    case "Span.reset scopes a reused recorder per run" (fun () ->
        let open Cobegin_core in
        let spans = Span.create () in
        let prog = parse Cobegin_models.Figures.fig2 in
        let r1 = Pipeline.analyze ~spans prog in
        Span.reset spans;
        let r2 = Pipeline.analyze ~spans prog in
        check_int "recorder holds only the second run"
          (List.length r2.Pipeline.telemetry)
          (Span.event_count spans);
        check_int "reports see one run each"
          (List.length r1.Pipeline.telemetry)
          (List.length r2.Pipeline.telemetry);
        (* ids keep ascending across resets, so traces stay mergeable *)
        let min_id =
          List.fold_left
            (fun acc e -> min acc e.Span.ev_id)
            max_int (Span.events spans)
        in
        check_bool "ids continue after reset" true
          (min_id >= List.length r1.Pipeline.telemetry));
  ]

let suite = span_tests @ metrics_tests @ progress_tests @ pipeline_tests
