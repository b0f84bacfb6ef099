(* The serve daemon of PR 10: the protocol JSON reader, the two-tier
   content-addressed result cache (LRU eviction, disk survival across
   restarts, torn-file tolerance), the request handler (warm hits
   byte-identical to cold misses, fingerprint sensitivity, option
   caps, error isolation), chaos-crash requests that degrade without
   poisoning the cache, and the socket loop end to end. *)

open Helpers
open Cobegin_core
module Serve = Cobegin_serve.Serve
module Cache = Cobegin_serve.Cache
module Sjson = Cobegin_serve.Sjson

let fig2 = Cobegin_models.Figures.fig2
let fig5 = Cobegin_models.Figures.fig5

let mk ?(capacity = 8) ?cache_dir ?(defaults = Pipeline.default_options) () =
  Serve.make
    {
      Serve.socket = "/tmp/cobegin-test-unused.sock";
      capacity;
      cache_dir;
      pool = 1;
      defaults;
      spans = None;
    }

(* A fresh directory in the system temp dir for [f], removed with
   everything in it when [f] returns or raises. *)
let with_tmpdir f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobegin-serve-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> remove (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove d) (fun () -> f d)

let response_field name resp =
  match Sjson.parse resp with
  | Error e -> Alcotest.failf "unparsable response %s: %s" resp e
  | Ok j -> Sjson.member name j

let response_int name resp =
  match Option.bind (response_field name resp) Sjson.to_int with
  | Some i -> i
  | None -> Alcotest.failf "response has no int %s: %s" name resp

let response_str name resp =
  match Option.bind (response_field name resp) Sjson.to_string with
  | Some s -> s
  | None -> Alcotest.failf "response has no string %s: %s" name resp

let report_raw resp =
  match Serve.response_report_raw resp with
  | Some r -> r
  | None -> Alcotest.failf "no report in response: %s" resp

let sjson_tests =
  [
    case "sjson parses the value grammar" (fun () ->
        let ok s = Result.is_ok (Sjson.parse s) in
        List.iter
          (fun s -> check_bool s true (ok s))
          [
            "null";
            "true";
            "-12";
            "3.5";
            "1e3";
            {|"hi"|};
            "[1,2,3]";
            {|{"a":1,"b":[true,null]}|};
            "  { }  ";
          ];
        List.iter
          (fun s -> check_bool ("reject " ^ s) false (ok s))
          [
            "";
            "{";
            "[1,]";
            {|{"a":}|};
            "01e";
            "truex";
            {|"unterminated|};
            "1 2" (* trailing garbage *);
            {|{"a":1,}|};
          ]);
    case "sjson decodes escapes and surrogate pairs" (fun () ->
        match Sjson.parse {|"a\n\t\\\"A😀"|} with
        | Ok (Sjson.Str s) ->
            check_string "decoded" "a\n\t\\\"A\xf0\x9f\x98\x80" s
        | Ok _ | Error _ -> Alcotest.fail "expected a string");
    case "sjson rejects unpaired surrogates" (fun () ->
        check_bool "lone high" true
          (Result.is_error (Sjson.parse {|"\ud83d"|}));
        check_bool "lone low" true
          (Result.is_error (Sjson.parse {|"\ude00"|})));
    case "sjson numbers: ints stay ints, fractions become floats"
      (fun () ->
        check_bool "int" true (Sjson.parse "42" = Ok (Sjson.Int 42));
        check_bool "float" true (Sjson.parse "42.5" = Ok (Sjson.Float 42.5));
        check_bool "exp is float" true
          (Sjson.parse "1e2" = Ok (Sjson.Float 100.0)));
    case "sjson member looks fields up in order" (fun () ->
        match Sjson.parse {|{"a":1,"b":"x"}|} with
        | Ok j ->
            check_bool "a" true
              (Option.bind (Sjson.member "a" j) Sjson.to_int = Some 1);
            check_bool "missing" true (Sjson.member "zz" j = None)
        | Error e -> Alcotest.fail e);
  ]

let cache_tests =
  [
    case "LRU evicts the least-recent entry at capacity" (fun () ->
        let c = Cache.create ~capacity:2 () in
        let e k = { Cache.exit_code = 0; report = "{\"k\":\"" ^ k ^ "\"}" } in
        Cache.store c "k1" (e "k1");
        Cache.store c "k2" (e "k2");
        Cache.store c "k3" (e "k3");
        check_bool "k1 evicted" true (Cache.find c "k1" = None);
        check_bool "k2 kept" true (Cache.find c "k2" = Some (e "k2"));
        check_bool "k3 kept" true (Cache.find c "k3" = Some (e "k3"));
        let s = Cache.stats c in
        check_int "entries at capacity" 2 s.Cache.entries);
    case "a find promotes: recently-used entries survive eviction"
      (fun () ->
        let c = Cache.create ~capacity:2 () in
        let e k = { Cache.exit_code = 0; report = k } in
        Cache.store c "k1" (e "k1");
        Cache.store c "k2" (e "k2");
        ignore (Cache.find c "k1");
        Cache.store c "k3" (e "k3");
        check_bool "k2 (least recent) evicted" true (Cache.find c "k2" = None);
        check_bool "k1 survived via promotion" true
          (Cache.find c "k1" = Some (e "k1")));
    case "disk entries survive a restart (a fresh cache on the same dir)"
      (fun () ->
        with_tmpdir @@ fun dir ->
        let e = { Cache.exit_code = 2; report = {|{"deep":"thought"}|} } in
        let c1 = Cache.create ~dir ~capacity:4 () in
        Cache.store c1 "cafe0123cafe0123" e;
        let c2 = Cache.create ~dir ~capacity:4 () in
        check_bool "reloaded" true (Cache.find c2 "cafe0123cafe0123" = Some e);
        let s = Cache.stats c2 in
        check_int "disk hit counted as hit" 1 s.Cache.hits;
        check_int "promoted into memory" 1 s.Cache.entries);
    case "torn or corrupt disk entries load as misses" (fun () ->
        with_tmpdir @@ fun dir ->
        let c = Cache.create ~dir ~capacity:4 () in
        let write name content =
          let oc = open_out (Filename.concat dir name) in
          output_string oc content;
          close_out oc
        in
        (* no newline, bad meta JSON, truncated report, wrong key *)
        write "aaaa.entry" "torn";
        write "bbbb.entry" "not json\n{}\n";
        write "cccc.entry"
          {|{"format_version":1,"key":"cccc","exit_code":0,"report_bytes":99}
{"short":true}
|};
        write "dddd.entry"
          {|{"format_version":1,"key":"zzzz","exit_code":0,"report_bytes":8}
{"ok":1}
|};
        List.iter
          (fun k -> check_bool (k ^ " is a miss") true (Cache.find c k = None))
          [ "aaaa"; "bbbb"; "cccc"; "dddd" ]);
  ]

let handler_tests =
  [
    case "ping, stats and unknown ops" (fun () ->
        let t = mk () in
        let resp, stop = Serve.handle_line t {|{"op":"ping"}|} in
        check_bool "ping ok" true (contains resp {|"op":"ping"|});
        check_bool "ping does not stop" false stop;
        let resp, _ = Serve.handle_line t {|{"op":"stats"}|} in
        check_int "no cache traffic yet" 0 (response_int "hits" resp);
        let resp, stop = Serve.handle_line t {|{"op":"teapot"}|} in
        check_bool "unknown op is an error" true
          (contains resp {|"ok":false|});
        check_bool "unknown op does not stop" false stop;
        let resp, stop = Serve.handle_line t {|{"op":"shutdown"}|} in
        check_bool "shutdown acked" true (contains resp {|"ok":true|});
        check_bool "shutdown stops" true stop);
    case "warm hit returns byte-identical report and exit code" (fun () ->
        let t = mk () in
        let line = Serve.analyze_line fig2 in
        let cold, _ = Serve.handle_line t line in
        let warm, _ = Serve.handle_line t line in
        check_string "cold misses" "miss" (response_str "cache" cold);
        check_string "warm hits" "hit" (response_str "cache" warm);
        check_string "same key" (response_str "key" cold)
          (response_str "key" warm);
        check_string "byte-identical report" (report_raw cold)
          (report_raw warm);
        check_int "same exit code" (response_int "exit_code" cold)
          (response_int "exit_code" warm);
        (* and both agree with a direct pipeline run *)
        let r = Pipeline.analyze (parse fig2) in
        check_string "report matches a direct run" (Report.to_json r)
          (report_raw cold);
        check_int "exit code matches a direct run"
          (Report.report_exit_code r)
          (response_int "exit_code" cold);
        check_bool "report is valid JSON" true (json_valid (report_raw cold)));
    case "the key is sensitive to options and memory model" (fun () ->
        let t = mk () in
        let base, _ = Serve.handle_line t (Serve.analyze_line fig2) in
        let races, _ =
          Serve.handle_line t
            (Serve.analyze_line ~options_json:{|{"races":true}|} fig2)
        in
        let tso, _ =
          Serve.handle_line t
            (Serve.analyze_line ~options_json:{|{"memory_model":"tso"}|} fig2)
        in
        let other, _ = Serve.handle_line t (Serve.analyze_line fig5) in
        check_string "races request misses" "miss" (response_str "cache" races);
        check_string "tso request misses" "miss" (response_str "cache" tso);
        check_string "other program misses" "miss"
          (response_str "cache" other);
        let keys =
          List.map (response_str "key") [ base; races; tso; other ]
        in
        check_int "four distinct keys" 4
          (List.length (List.sort_uniq compare keys));
        (* reruns of each are hits — the cache holds all four *)
        let again, _ =
          Serve.handle_line t
            (Serve.analyze_line ~options_json:{|{"memory_model":"tso"}|} fig2)
        in
        check_string "tso rerun hits" "hit" (response_str "cache" again));
    case "malformed requests are errors, not daemon deaths" (fun () ->
        let t = mk () in
        List.iter
          (fun line ->
            let resp, stop = Serve.handle_line t line in
            check_bool ("error for " ^ line) true
              (contains resp {|"ok":false|});
            check_int ("exit 1 for " ^ line) 1 (response_int "exit_code" resp);
            check_bool "does not stop" false stop)
          [
            "not json at all";
            {|{"no":"program"}|};
            {|{"program":42}|};
            {|{"program":"x := (", "options":{}}|} (* parse error *);
            {|{"program":"x := 1","options":{"zap":1}}|} (* unknown option *);
            {|{"program":"x := 1","options":{"engine":"warp"}}|};
          ];
        (* and the daemon still serves afterwards *)
        let resp, _ = Serve.handle_line t (Serve.analyze_line fig2) in
        check_bool "still serving" true (contains resp {|"ok":true|}));
    case "request options are capped by the server defaults" (fun () ->
        let defaults =
          {
            Pipeline.default_options with
            Pipeline.max_configs = 1000;
            timeout_s = Some 10.0;
            jobs = 2;
            retries = 1;
          }
        in
        let decode s =
          match Sjson.parse s with
          | Ok j -> Serve.options_of_json ~defaults j
          | Error e -> Error e
        in
        (match decode {|{"max_configs":99,"jobs":1,"retries":0}|} with
        | Ok o ->
            check_int "lowering allowed" 99 o.Pipeline.max_configs;
            check_int "jobs lowered" 1 o.Pipeline.jobs;
            check_int "retries lowered" 0 o.Pipeline.retries
        | Error e -> Alcotest.fail e);
        (match decode {|{"max_configs":999999,"jobs":64,"timeout_s":1e9}|} with
        | Ok o ->
            check_int "max_configs capped" 1000 o.Pipeline.max_configs;
            check_int "jobs capped" 2 o.Pipeline.jobs;
            check_bool "timeout capped" true
              (o.Pipeline.timeout_s = Some 10.0)
        | Error e -> Alcotest.fail e);
        check_bool "absent options mean the defaults" true
          (Serve.options_of_json ~defaults Sjson.Null = Ok defaults));
    case "engine spellings: CLI and report forms both parse" (fun () ->
        let eng s = Report.engine_of_string s in
        check_bool "full" true (eng "full" = Some Pipeline.Concrete_full);
        check_bool "concrete/full" true
          (eng "concrete/full" = Some Pipeline.Concrete_full);
        check_bool "stubborn" true
          (eng "stubborn" = Some Pipeline.Concrete_stubborn);
        check_bool "abstract defaults" true
          (eng "abstract"
          = Some
              (Pipeline.Abstract
                 (Cobegin_absint.Analyzer.Intervals,
                  Cobegin_absint.Machine.Control)));
        check_bool "abstract/signs/clan" true
          (eng "abstract/signs/clan"
          = Some
              (Pipeline.Abstract
                 (Cobegin_absint.Analyzer.Signs, Cobegin_absint.Machine.Clan)));
        check_bool "unknown engine" true (eng "warp" = None);
        check_bool "unknown folding" true (eng "abstract/signs/warp" = None));
    case "disk-backed daemon restart serves warm hits" (fun () ->
        with_tmpdir @@ fun dir ->
        let line = Serve.analyze_line fig2 in
        let t1 = mk ~cache_dir:dir () in
        let cold, _ = Serve.handle_line t1 line in
        check_string "cold misses" "miss" (response_str "cache" cold);
        (* "restart": fresh daemon state over the same directory *)
        let t2 = mk ~cache_dir:dir () in
        let warm, _ = Serve.handle_line t2 line in
        check_string "warm after restart" "hit" (response_str "cache" warm);
        check_string "same bytes across the restart" (report_raw cold)
          (report_raw warm));
    case "a chaos-crash request degrades without poisoning the cache"
      (fun () ->
        match Fault.parse "crash@pipeline.side-effects:1" with
        | Error e -> Alcotest.fail e
        | Ok plan ->
            Fault.install plan;
            Fun.protect ~finally:Fault.clear (fun () ->
                let t = mk () in
                let line =
                  Serve.analyze_line ~options_json:{|{"retries":0}|} fig2
                in
                let crashed, stop = Serve.handle_line t line in
                check_bool "crash request still answered" true
                  (contains crashed {|"ok":true|});
                check_bool "daemon not stopped" false stop;
                check_int "stage crash exits 3" 3
                  (response_int "exit_code" crashed);
                check_bool "crash report records the stage" true
                  (contains (report_raw crashed) "side-effects");
                (* the disturbed result must not have been cached: the
                   rerun misses and — the fault consumed — runs clean *)
                let clean, _ = Serve.handle_line t line in
                check_string "rerun misses" "miss"
                  (response_str "cache" clean);
                check_int "rerun is clean" 0 (response_int "exit_code" clean)));
  ]

(* --- the options table: one description, four folds --- *)

module Step = Cobegin_semantics.Step
module Analyzer = Cobegin_absint.Analyzer
module Machine = Cobegin_absint.Machine

let all_engines =
  Pipeline.Concrete_full :: Pipeline.Concrete_stubborn
  :: List.concat_map
       (fun d ->
         List.map
           (fun f -> Pipeline.Abstract (d, f))
           [ Machine.Exact; Machine.Control; Machine.Clan ])
       Analyzer.[ Intervals; Constants; Signs; Parities; Interval_parity ]

let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

(* Every engine under every model, with each optional limit absent and
   present: 17 x 3 x 8 records, the other fields drawn from a fixed
   seed.  Heap limits are whole megabytes, so the CLI can spell them. *)
let sample_options =
  let rs = Random.State.make [| 19 |] in
  let int lo hi = lo + Random.State.int rs (hi - lo + 1) in
  let bool () = Random.State.bool rs in
  List.concat_map
    (fun engine ->
      List.concat_map
        (fun memory_model ->
          List.init 8 (fun mask ->
              let some bit v = if mask land bit <> 0 then Some v else None in
              {
                Pipeline.engine;
                memory_model;
                coarsen = bool ();
                inline = bool ();
                max_configs = int 1 10_000_000;
                max_transitions = some 1 (int 1 10_000_000);
                timeout_s = some 2 (Random.State.float rs 1000. +. 1e-3);
                max_heap_words = some 4 (int 1 4096 * words_per_mb);
                find_races = bool ();
                lint = bool ();
                interfere = bool ();
                jobs = int 1 64;
                retries = int 0 5;
              }))
        [ Step.Sc; Step.Tso; Step.Pso ])
    all_engines

(* The fingerprint as it was written out before the table, frozen: run
   keys and disk-cache entries depend on its bytes. *)
let frozen_fingerprint (o : Pipeline.options) =
  let opt f = function None -> "none" | Some v -> f v in
  String.concat ";"
    [
      "engine=" ^ Report.engine_name o.engine;
      "memory_model=" ^ Step.model_name o.memory_model;
      "coarsen=" ^ string_of_bool o.coarsen;
      "inline=" ^ string_of_bool o.inline;
      "max_configs=" ^ string_of_int o.max_configs;
      "max_transitions=" ^ opt string_of_int o.max_transitions;
      "timeout_s=" ^ opt (Printf.sprintf "%.17g") o.timeout_s;
      "max_heap_words=" ^ opt string_of_int o.max_heap_words;
      "find_races=" ^ string_of_bool o.find_races;
      "lint=" ^ string_of_bool o.lint;
      "interfere=" ^ string_of_bool o.interfere;
      "jobs=" ^ string_of_int o.jobs;
      "retries=" ^ string_of_int o.retries;
    ]

(* The command line that spells [o], written out flag by flag. *)
let argv_of (o : Pipeline.options) =
  let switch name on = if on then [ name ] else [] in
  let limit name text = function
    | None -> []
    | Some v -> [ name ^ "=" ^ text v ]
  in
  [
    "-e"; Report.engine_name o.engine;
    "--memory-model"; Step.model_name o.memory_model;
    "--max-configs"; string_of_int o.max_configs;
    "--jobs"; string_of_int o.jobs;
    "--retries"; string_of_int o.retries;
  ]
  @ switch "--coarsen" o.coarsen @ switch "--inline" o.inline
  @ switch "--races" o.find_races @ switch "--lint" o.lint
  @ switch "--interfere" o.interfere
  @ limit "--max-transitions" string_of_int o.max_transitions
  @ limit "--timeout" (Printf.sprintf "%.17g") o.timeout_s
  @ limit "--max-heap-mb" (fun w -> string_of_int (w / words_per_mb))
      o.max_heap_words

(* what [term] reads from [argv]; [None] when cmdliner refuses it *)
let eval term argv =
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "coanalyze") term in
  match
    Cmdliner.Cmd.eval_value ~help:quiet ~err:quiet
      ~argv:(Array.of_list ("coanalyze" :: argv))
      cmd
  with
  | Ok (`Ok o) -> Some o
  | Ok (`Help | `Version) | Error _ -> None

let cli ?only argv = eval (Cobegin_serve.Cli.options ?only ()) argv

let decode ~defaults s =
  match Sjson.parse s with
  | Ok j -> Serve.options_of_json ~defaults j
  | Error e -> Error e

(* caps that never bind: a decoded record is the requested one *)
let no_caps =
  {
    Pipeline.default_options with
    max_configs = max_int;
    jobs = max_int;
    retries = max_int;
  }

let table_tests =
  [
    case "fingerprints equal the frozen pre-table function" (fun () ->
        check_int "17 engines x 3 models x 8 limit sets" 408
          (List.length sample_options);
        List.iter
          (fun o ->
            check_string "fingerprint" (frozen_fingerprint o)
              (Pipeline.options_fingerprint o))
          (Pipeline.default_options :: sample_options));
    case "timeouts enter the run key at full precision" (fun () ->
        let prog = Cobegin_lang.Parser.parse_string Cobegin_models.Figures.fig2 in
        let key t =
          Pipeline.run_key
            { Pipeline.default_options with timeout_s = Some t }
            prog
        in
        check_bool "100.0000001 and 100.0000004 key apart" true
          (key 100.0000001 <> key 100.0000004);
        check_bool "a whole timeout prints as an integer" true
          (contains
             (Pipeline.options_fingerprint
                { Pipeline.default_options with timeout_s = Some 100. })
             ";timeout_s=100;"));
    case "decoding the client's encoding gives the record back" (fun () ->
        List.iter
          (fun o ->
            let json = Serve.options_to_json o in
            check_bool "valid JSON" true (json_valid json);
            match decode ~defaults:no_caps json with
            | Ok o' ->
                check_string "same fingerprint"
                  (Pipeline.options_fingerprint o)
                  (Pipeline.options_fingerprint o');
                check_bool ("round trip of " ^ json) true (o = o')
            | Error e -> Alcotest.failf "%s refused: %s" json e)
          sample_options);
    case "the CLI term reads back the record its argv spells" (fun () ->
        check_bool "no flags give the defaults" true
          (cli [] = Some Pipeline.default_options);
        List.iter
          (fun o ->
            let argv = argv_of o in
            match cli argv with
            | Some o' ->
                check_bool (String.concat " " argv) true (o = o');
                check_bool "the daemon decodes the same record" true
                  (decode ~defaults:no_caps (Serve.options_to_json o')
                  = Ok o')
            | None -> Alcotest.failf "refused: %s" (String.concat " " argv))
          sample_options);
    case "the CLI and the decoder refuse the same bad values" (fun () ->
        List.iter
          (fun (argv, request) ->
            check_bool (String.concat " " argv ^ " refused") true
              (cli argv = None);
            check_bool (request ^ " refused") true
              (Result.is_error
                 (decode ~defaults:Pipeline.default_options request)))
          [
            ([ "--max-configs"; "0" ], {|{"max_configs":0}|});
            ([ "--max-configs=-5" ], {|{"max_configs":-5}|});
            ([ "--max-transitions"; "0" ], {|{"max_transitions":0}|});
            ([ "--max-heap-mb"; "0" ], {|{"max_heap_words":0}|});
            ([ "--jobs"; "0" ], {|{"jobs":0}|});
            ([ "--timeout"; "0" ], {|{"timeout_s":0}|});
            ([ "--timeout=-1.5" ], {|{"timeout_s":-1.5}|});
            ([ "--retries=-1" ], {|{"retries":-1}|});
            ([ "-e"; "warp" ], {|{"engine":"warp"}|});
            ( [ "-e"; "abstract/signs/warp" ],
              {|{"engine":"abstract/signs/warp"}|} );
            ([ "--memory-model"; "x86" ], {|{"memory_model":"x86"}|});
            ([ "--races=true" ], {|{"races":"true"}|});
            ([ "--max-configs"; "many" ], {|{"max_configs":"many"}|});
            ([ "--jobs"; "2.5" ], {|{"jobs":2.5}|});
            ([ "--timeout"; "soon" ], {|{"timeout_s":"soon"}|});
          ];
        (* one key per field *)
        List.iter
          (fun request ->
            check_bool (request ^ " refused") true
              (Result.is_error
                 (decode ~defaults:Pipeline.default_options request)))
          [ {|{"memory-model":"tso"}|}; {|{"find_races":true}|} ];
        check_bool "a subcommand takes only its rows" true
          (cli ~only:[ "max_configs" ] [ "--races" ] = None));
    case "the numeric flags outside the table refuse zero and below"
      (fun () ->
        let flag c default =
          Cmdliner.Arg.(
            value
            & opt (Cobegin_serve.Cli.positive c) default
            & info [ "num" ])
        in
        let count = flag Cmdliner.Arg.int 1
        and secs = flag Cmdliner.Arg.float 1. in
        check_bool "--num 3" true (eval count [ "--num"; "3" ] = Some 3);
        check_bool "--num 0.25" true
          (eval secs [ "--num"; "0.25" ] = Some 0.25);
        List.iter
          (fun v ->
            check_bool ("count " ^ v ^ " refused") true
              (eval count [ "--num=" ^ v ] = None);
            check_bool ("seconds " ^ v ^ " refused") true
              (eval secs [ "--num=" ^ v ] = None))
          [ "0"; "-1"; "nan"; "soon" ];
        check_bool "a count is whole" true
          (eval count [ "--num"; "1.5" ] = None));
    case "engine_of_string inverts engine_name on all 17 engines" (fun () ->
        List.iter
          (fun e ->
            let name = Report.engine_name e in
            check_bool name true (Report.engine_of_string name = Some e))
          all_engines);
  ]

let socket_tests =
  [
    case "end to end over a Unix socket: ping, analyze, shutdown" (fun () ->
        let socket =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "cobegin-%d-%d.sock" (Unix.getpid ())
               (Random.bits () land 0xffff))
        in
        let daemon =
          Serve.make
            {
              Serve.socket;
              capacity = 8;
              cache_dir = None;
              pool = 2;
              defaults = Pipeline.default_options;
              spans = None;
            }
        in
        let d = Domain.spawn (fun () -> Serve.run daemon) in
        let rec req ?(tries = 100) line =
          match Serve.request ~socket line with
          | resp -> resp
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when tries > 0 ->
              Unix.sleepf 0.05;
              req ~tries:(tries - 1) line
        in
        let ping = req {|{"op":"ping"}|} in
        check_bool "ping over the wire" true (contains ping {|"op":"ping"|});
        let cold = req (Serve.analyze_line fig2) in
        let warm = req (Serve.analyze_line fig2) in
        check_string "cold misses" "miss" (response_str "cache" cold);
        check_string "warm hits" "hit" (response_str "cache" warm);
        check_string "identical bytes over the wire" (report_raw cold)
          (report_raw warm);
        let bye = req {|{"op":"shutdown"}|} in
        check_bool "shutdown acked" true (contains bye {|"ok":true|});
        Domain.join d;
        check_bool "socket removed on exit" false (Sys.file_exists socket));
  ]

let suite =
  sjson_tests @ cache_tests @ handler_tests @ table_tests @ socket_tests
