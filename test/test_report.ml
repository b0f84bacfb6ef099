(* The observability stack of PR 9: the pure report core's JSON
   (valid, deterministic, exit-code-carrying), the event journal (ring
   bounding, sink thresholds, flight-recorder dumps on injected
   crashes) and the digest-addressed run manifest (stable keys,
   sensitivity to every identity component). *)

open Helpers
open Cobegin_core
module Journal = Cobegin_obs.Journal
module Manifest = Cobegin_obs.Manifest

let journal_tests =
  [
    case "disabled journal: emit is a no-op, dumps are empty" (fun () ->
        check_bool "disabled" false (Journal.enabled ());
        Journal.emit "nobody.home" [ ("x", Journal.Int 1) ];
        check_bool "ring empty" true (Journal.ring_events () = []);
        check_bool "dump empty" true
          (Journal.flight_dump ~reason:"r" () = []));
    case "ring is bounded: capacity N keeps the newest N" (fun () ->
        with_journal ~capacity:8 (fun () ->
            for i = 0 to 19 do
              Journal.emit "tick" [ ("i", Journal.Int i) ]
            done;
            check_int "capacity" 8 (Journal.ring_capacity ());
            let evs = Journal.ring_events () in
            check_int "ring holds 8" 8 (List.length evs);
            (* newest 8, oldest first: seqs 12..19 *)
            check_int "oldest kept" 12 (List.hd evs).Journal.e_seq;
            check_int "newest kept" 19
              (List.nth evs 7).Journal.e_seq;
            let sorted = List.map (fun e -> e.Journal.e_seq) evs in
            check_bool "sorted by seq" true
              (sorted = List.sort Int.compare sorted)));
    case "ring records every level; the sink honors its threshold"
      (fun () ->
        let path = Filename.temp_file "journal" ".jsonl" in
        let oc = open_out path in
        with_journal ~threshold:Journal.Warn ~sink:oc (fun () ->
            Journal.emit ~level:Journal.Debug "a" [];
            Journal.emit ~level:Journal.Info "b" [];
            Journal.emit ~level:Journal.Warn "c" [];
            Journal.emit ~level:Journal.Error "d" [];
            check_int "ring has all four" 4
              (List.length (Journal.ring_events ())));
        close_out oc;
        let lines = read_lines path in
        Sys.remove path;
        check_int "sink got warn+error only" 2 (List.length lines);
        List.iter
          (fun l -> check_bool "line valid" true (json_valid l))
          lines);
    case "event JSON is valid and escapes hostile fields" (fun () ->
        with_journal (fun () ->
            Journal.emit "quo\"ted\n"
              [
                ("s", Journal.Str "back\\slash \"q\"");
                ("i", Journal.Int (-3));
                ("f", Journal.Float 1.5);
                ("b", Journal.Bool true);
              ];
            match Journal.ring_events () with
            | [ ev ] ->
                let j = Journal.event_to_json ev in
                check_bool "valid" true (json_valid j);
                check_bool "bool field" true (contains j "\"b\":true")
            | _ -> Alcotest.fail "one event expected"));
    case "flight_dump bypasses the sink threshold" (fun () ->
        let path = Filename.temp_file "journal" ".jsonl" in
        let oc = open_out path in
        with_journal ~threshold:Journal.Error ~sink:oc (fun () ->
            Journal.emit ~level:Journal.Debug "breadcrumb" [];
            let lines = Journal.flight_dump ~reason:"testing" () in
            check_int "dump returns the ring" 1 (List.length lines);
            List.iter
              (fun l -> check_bool "dump line valid" true (json_valid l))
              lines);
        close_out oc;
        let lines = read_lines path in
        Sys.remove path;
        (* the Debug breadcrumb was filtered, the dump was not *)
        check_int "one flight_recorder record" 1 (List.length lines);
        check_bool "carries the reason" true
          (contains (List.hd lines) "\"flight_recorder\""));
    case "level names round-trip (and accept \"warning\")" (fun () ->
        List.iter
          (fun l ->
            check_bool (Journal.level_name l) true
              (Journal.level_of_string (Journal.level_name l) = Some l))
          [ Journal.Debug; Journal.Info; Journal.Warn; Journal.Error ];
        check_bool "warning alias" true
          (Journal.level_of_string "WARNING" = Some Journal.Warn);
        check_bool "junk rejected" true
          (Journal.level_of_string "loud" = None));
  ]

let fig2 () = parse Cobegin_models.Figures.fig2

let report_tests =
  [
    case "report JSON is valid and carries the exit code" (fun () ->
        let options =
          {
            Pipeline.default_options with
            find_races = true;
            lint = true;
            interfere = true;
          }
        in
        let r = Pipeline.analyze ~options (fig2 ()) in
        let json = Report.to_json r in
        check_bool "valid JSON" true (json_valid json);
        List.iter
          (fun key -> check_bool key true (contains json ("\"" ^ key ^ "\"")))
          [
            "format_version";
            "program_digest";
            "engine";
            "memory_model";
            "exit_code";
            "status";
            "stats";
            "budget";
            "stage_failures";
            "recovery";
            "side_effects";
            "races";
            "static";
            "interference";
            "telemetry";
          ];
        check_bool "embedded exit code agrees" true
          (contains json
             (Printf.sprintf "\"exit_code\":%d" (Report.report_exit_code r))));
    case "report JSON is byte-deterministic across identical runs"
      (fun () ->
        let options =
          { Pipeline.default_options with find_races = true; lint = true }
        in
        let j1 = Report.to_json (Pipeline.analyze ~options (fig2 ())) in
        let j2 = Report.to_json (Pipeline.analyze ~options (fig2 ())) in
        check_string "identical bytes" j1 j2);
    case "program digest: stable for equal programs, 16 hex chars"
      (fun () ->
        let d1 = Report.program_digest (fig2 ()) in
        let d2 = Report.program_digest (fig2 ()) in
        check_string "stable" d1 d2;
        check_int "16 chars" 16 (String.length d1);
        let d3 = Report.program_digest (parse Cobegin_models.Figures.fig5) in
        check_bool "distinct programs, distinct digests" true (d1 <> d3));
    case "an injected pipeline.<stage> crash attaches a flight dump"
      (fun () ->
        (match Fault.parse "crash@pipeline.side-effects:1" with
        | Ok plan -> Fault.install plan
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.clear (fun () ->
            with_journal (fun () ->
                let options =
                  { Pipeline.default_options with retries = 0 }
                in
                let r = Pipeline.analyze ~options (fig2 ()) in
                match r.Pipeline.stage_failures with
                | [ f ] ->
                    check_string "the crashed stage" "side-effects"
                      f.Pipeline.stage;
                    check_bool "flight dump attached" true
                      (f.Pipeline.flight <> []);
                    List.iter
                      (fun l ->
                        check_bool "flight line valid" true (json_valid l))
                      f.Pipeline.flight;
                    (* the recorder caught the trigger itself *)
                    check_bool "fault.injected in the dump" true
                      (List.exists
                         (fun l -> contains l "fault.injected")
                         f.Pipeline.flight);
                    let json = Report.to_json r in
                    check_bool "report with flight still valid JSON" true
                      (json_valid json)
                | fs ->
                    Alcotest.fail
                      (Printf.sprintf "expected 1 failure, got %d"
                         (List.length fs)))));
    case "clear_ring scopes flights: no first-run events in a second run's \
          crash dump"
      (fun () ->
        (* the serve-daemon bugfix pinned: two pipeline runs in one
           process share the journal's ring, so a crash in the second
           run used to dump the first run's breadcrumbs too *)
        with_journal (fun () ->
            let prog = fig2 () in
            let crash_second_run () =
              (match Fault.parse "crash@pipeline.side-effects:1" with
              | Ok plan -> Fault.install plan
              | Error e -> Alcotest.fail e);
              Fun.protect ~finally:Fault.clear (fun () ->
                  let options =
                    { Pipeline.default_options with retries = 0 }
                  in
                  let r = Pipeline.analyze ~options prog in
                  match r.Pipeline.stage_failures with
                  | [ f ] -> f.Pipeline.flight
                  | _ -> Alcotest.fail "expected 1 failure")
            in
            (* control: without scoping, the first run's marker leaks
               into the second run's flight dump *)
            let _ = Pipeline.analyze prog in
            Journal.emit "marker.first-run" [];
            let leaked = crash_second_run () in
            check_bool "unscoped ring leaks the first run" true
              (List.exists (fun l -> contains l "marker.first-run") leaked);
            (* scoped: clearing the ring between runs isolates the dump *)
            let _ = Pipeline.analyze prog in
            Journal.emit "marker.first-run" [];
            Journal.clear_ring ();
            let flight = crash_second_run () in
            check_bool "second run still dumps a flight" true (flight <> []);
            List.iter
              (fun l ->
                check_bool "no first-run marker in the flight" false
                  (contains l "marker.first-run"))
              flight));
    case "without the journal, a crash reports an empty flight" (fun () ->
        (match Fault.parse "crash@pipeline.side-effects:1" with
        | Ok plan -> Fault.install plan
        | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Fault.clear (fun () ->
            let options = { Pipeline.default_options with retries = 0 } in
            let r = Pipeline.analyze ~options (fig2 ()) in
            match r.Pipeline.stage_failures with
            | [ f ] -> check_bool "no dump" true (f.Pipeline.flight = [])
            | _ -> Alcotest.fail "expected 1 failure"));
    case "options fingerprint: total over the fields, stable" (fun () ->
        let fp = Pipeline.options_fingerprint in
        let o = Pipeline.default_options in
        check_string "deterministic" (fp o) (fp o);
        check_bool "names the engine" true
          (contains (fp o) "engine=concrete/full");
        check_bool "jobs distinguishes" true
          (fp o <> fp { o with jobs = 4 });
        check_bool "model distinguishes" true
          (fp o
          <> fp { o with memory_model = Cobegin_semantics.Step.Tso }));
  ]

let manifest_tests =
  [
    case "fnv1a64 matches the reference vectors" (fun () ->
        check_string "empty" "cbf29ce484222325"
          (Printf.sprintf "%016Lx" (Manifest.fnv1a64 ""));
        check_string "\"a\"" "af63dc4c8601ec8c"
          (Printf.sprintf "%016Lx" (Manifest.fnv1a64 "a")));
    case "key: deterministic, sensitive to every component" (fun () ->
        let key =
          Manifest.key ~analyzer:"a" ~program_digest:"p"
            ~options_fingerprint:"o"
        in
        let k = key ~memory_model:"sc" in
        check_string "stable" k (key ~memory_model:"sc");
        check_int "16 hex chars" 16 (String.length k);
        check_bool "model changes it" true (k <> key ~memory_model:"tso");
        check_bool "digest changes it" true
          (k
          <> Manifest.key ~analyzer:"a" ~program_digest:"q"
               ~options_fingerprint:"o" ~memory_model:"sc");
        check_bool "fingerprint changes it" true
          (k
          <> Manifest.key ~analyzer:"a" ~program_digest:"p"
               ~options_fingerprint:"x" ~memory_model:"sc");
        check_bool "analyzer changes it" true
          (k
          <> Manifest.key ~analyzer:"b" ~program_digest:"p"
               ~options_fingerprint:"o" ~memory_model:"sc"));
    case "the run key covers the running analyzer build" (fun () ->
        let a = Manifest.analyzer () in
        check_int "hex digest of the executable" 32 (String.length a);
        check_string "read once" a (Manifest.analyzer ());
        let prog = Pipeline.load_source Cobegin_models.Figures.fig2 in
        let o = Pipeline.default_options in
        let k = Pipeline.run_key o prog in
        check_string "stable within a process" k (Pipeline.run_key o prog);
        check_string "the manifest key of this build"
          (Manifest.key ~analyzer:a
             ~program_digest:(Report.program_digest prog)
             ~options_fingerprint:(Pipeline.options_fingerprint o)
             ~memory_model:"sc")
          k;
        let m =
          Manifest.make ~program_digest:"p" ~options_fingerprint:"o"
            ~memory_model:"sc" ~status:"complete" ~exit_code:0 ~elapsed_s:0.
            ()
        in
        check_bool "the manifest records it" true
          (contains (Manifest.to_json m) ("\"analyzer\":\"" ^ a ^ "\""));
        check_bool "another build, another key" true
          (m.Manifest.mf_key
          <> (Manifest.make ~analyzer:"other" ~program_digest:"p"
                ~options_fingerprint:"o" ~memory_model:"sc" ~status:"complete"
                ~exit_code:0 ~elapsed_s:0. ())
               .Manifest.mf_key));
    case "manifest JSON is valid, embeds raw metrics, nulls absences"
      (fun () ->
        let m =
          Manifest.make ~program_digest:"deadbeefdeadbeef"
            ~options_fingerprint:"engine=concrete/full"
            ~memory_model:"sc" ~status:"complete" ~exit_code:0
            ~elapsed_s:1.25
            ~metrics:"{\"counters\":{}}"
            ()
        in
        let j = Manifest.to_json m in
        check_bool "valid" true (json_valid j);
        check_bool "raw metrics embedded" true
          (contains j "\"metrics\":{\"counters\":{}}");
        check_bool "absent chaos is null" true
          (contains j "\"chaos\":null");
        check_bool "key embedded" true
          (contains j ("\"key\":\"" ^ m.Manifest.mf_key ^ "\"")));
    case "write emits one line that round-trips the checker" (fun () ->
        let path = Filename.temp_file "manifest" ".json" in
        let m =
          Manifest.make ~program_digest:"00" ~options_fingerprint:"o"
            ~memory_model:"pso" ~status:"truncated: configs" ~exit_code:2
            ~elapsed_s:0.5 ~chaos:"crash@space.pop:1" ()
        in
        Manifest.write m path;
        let lines = read_lines path in
        Sys.remove path;
        check_int "one line" 1 (List.length lines);
        check_bool "valid" true (json_valid (List.hd lines)));
  ]

let suite = journal_tests @ report_tests @ manifest_tests
