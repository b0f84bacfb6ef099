(* The analyzer pipeline: the paper's framework end-to-end.

     source
       → parse → check → (virtual coarsening | inlining)        [front end]
       → state-space exploration (full | stubborn)              [section 2]
         and/or abstract exploration (folding, numeric domain)  [sections 3-6]
       → instrumentation log
       → side effects, dependences, lifetimes                   [section 5]
       → parallelization, memory placement, compile-time GC     [section 7]

   This module is the public API most users want; the individual
   libraries stay available for finer control.

   The report itself — the types, the JSON rendering, the exit-code
   policy — lives in [Report], the pure data core; this module
   re-exports those types (so [Pipeline.report] etc. keep working),
   runs the engines, and keeps every pretty-printer.  Consumers that
   only need the data (the CLI's --json mode, a result cache) can
   depend on [Report] alone.

   Resource governance (Budget): one budget — configuration count,
   transition count, wall-clock deadline, heap watermark — governs the
   engine run and the race scan (one and the same BFS for the
   sequential full engine); exhaustion yields a partial report
   tagged [Truncated], never an exception.  Each section-5/7 analysis
   runs under a per-stage guard, so a crashing stage contributes an
   empty result plus a structured diagnostic instead of aborting the
   pipeline.

   Observability (Journal): when the process journal is started, the
   pipeline emits stage start/failure/recovery events, and every
   failed attempt dumps the journal's ring buffer — the flight
   recorder — to the log; a stage that gives up also attaches the dump
   to its [stage_failure] so the report carries the engine's last
   moments. *)

open Cobegin_lang
open Cobegin_trans
open Cobegin_semantics
open Cobegin_explore
open Cobegin_absint
open Cobegin_analysis
open Cobegin_apps
module Span = Cobegin_obs.Span
module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

(* Telemetry: stage attempts beyond the first (retries and ladder
   rungs).  One branch when telemetry is disabled. *)
let m_retries = Metrics.counter "pipeline.retries"

type engine = Report.engine =
  | Concrete_full (* ordinary state-space generation *)
  | Concrete_stubborn (* with persistent/stubborn-set reduction *)
  | Abstract of Analyzer.domain * Machine.folding

let pp_engine ppf = function
  | Concrete_full -> Format.pp_print_string ppf "concrete/full"
  | Concrete_stubborn -> Format.pp_print_string ppf "concrete/stubborn"
  | Abstract (d, f) ->
      Format.fprintf ppf "abstract/%a/%a" Analyzer.pp_domain d
        Machine.pp_folding f

type options = {
  engine : engine;
  memory_model : Step.model; (* concrete semantics: sc, tso or pso *)
  coarsen : bool; (* apply virtual coarsening first *)
  inline : bool; (* apply procedure inlining first *)
  max_configs : int;
  max_transitions : int option;
  timeout_s : float option; (* wall-clock deadline for the whole run *)
  max_heap_words : int option; (* GC major-heap watermark *)
  find_races : bool; (* co-enabledness race scan (concrete engines) *)
  lint : bool; (* static concurrency lints (budget-free pre-stage) *)
  interfere : bool; (* thread-modular interference analysis *)
  jobs : int; (* exploration domains; 1 = sequential engine *)
  retries : int; (* extra same-options attempts per crashed stage *)
}

let default_options =
  {
    engine = Concrete_full;
    memory_model = Step.Sc;
    coarsen = false;
    inline = false;
    max_configs = 500_000;
    max_transitions = None;
    timeout_s = None;
    max_heap_words = None;
    find_races = false;
    lint = false;
    interfere = false;
    jobs = 1;
    retries = 1;
  }

(* Multi-domain runs get a shared-mode budget: atomic sampling counter
   plus a CAS-latched first reason, so truncation fires once across
   the worker domains. *)
let budget_of_options (o : options) =
  Budget.create ~max_configs:o.max_configs ?max_transitions:o.max_transitions
    ?timeout_s:o.timeout_s ?max_heap_words:o.max_heap_words
    ~shared:(o.jobs > 1) ()

type exploration_stats = Report.exploration_stats = {
  configurations : int;
  transitions : int; (* 0 for abstract engines *)
  max_frontier : int; (* peak worklist size *)
  finals : int;
  deadlocks : int; (* 0 for abstract engines *)
  errors : int;
}

type stage_failure = Report.stage_failure = {
  stage : string;
  diagnostic : string;
  backtrace : string option; (* captured trace, when one was recorded *)
  flight : string list; (* journal ring dump at the give-up, JSON lines *)
}

let pp_stage_failure ppf f =
  Format.fprintf ppf "stage %s failed: %s" f.stage f.diagnostic

(* Supervision: what the pipeline did about a failed stage attempt. *)
type recovery_action = Report.recovery_action =
  | Retry
  | Degrade_jobs of { from_jobs : int; to_jobs : int }
  | Give_up

type recovery_rung = Report.recovery_rung = {
  r_stage : string;
  r_attempt : int; (* 1-based attempt that failed *)
  r_diagnostic : string;
  r_backtrace : string option;
  r_action : recovery_action;
}

let pp_recovery_action ppf = function
  | Retry -> Format.pp_print_string ppf "retried"
  | Degrade_jobs { from_jobs; to_jobs } ->
      Format.fprintf ppf "degraded jobs %d -> %d" from_jobs to_jobs
  | Give_up -> Format.pp_print_string ppf "gave up"

let pp_recovery_rung ppf r =
  Format.fprintf ppf "%s attempt %d failed (%s): %a" r.r_stage r.r_attempt
    r.r_diagnostic pp_recovery_action r.r_action

type report = Report.report = {
  program : Ast.program; (* after transforms *)
  engine_used : engine;
  memory_model : Step.model;
  stats : exploration_stats;
  status : Budget.status; (* completeness of the exploration(s) *)
  budget : Budget.headroom list; (* headroom snapshot at the end *)
  stage_failures : stage_failure list; (* crashed analyses, if any *)
  recovery : recovery_rung list; (* supervision ladder, in firing order *)
  degraded : bool; (* a result-bearing stage exhausted its ladder *)
  log : Event.log;
  side_effects : Side_effect.report list;
  deps : Depend.DepSet.t;
  lifetimes : Lifetime.info list;
  placements : Placement.decision list;
  gc_plan : Ctgc.entry list;
  races : Race.RaceSet.t option;
  critical : Critical.conflicts;
  static : Cobegin_static.Lint.result option; (* when [lint] was set *)
  interference : Interfere.summary option; (* when [interfere] was set *)
  telemetry : (string * float) list;
      (* per-stage wall seconds, in completion order; empty unless a span
         recorder was passed to [analyze] *)
}

(* The canonical options fingerprint: every field, in declaration
   order, as stable key=value strings — one component of the
   digest-addressed run-manifest key ([Cobegin_obs.Manifest.key]).
   Two option records fingerprint equally iff they request the same
   analysis. *)
let options_fingerprint (o : options) =
  let opt f = function None -> "none" | Some v -> f v in
  String.concat ";"
    [
      "engine=" ^ Report.engine_name o.engine;
      "memory_model=" ^ Step.model_name o.memory_model;
      "coarsen=" ^ string_of_bool o.coarsen;
      "inline=" ^ string_of_bool o.inline;
      "max_configs=" ^ string_of_int o.max_configs;
      "max_transitions=" ^ opt string_of_int o.max_transitions;
      "timeout_s=" ^ opt (Printf.sprintf "%g") o.timeout_s;
      "max_heap_words=" ^ opt string_of_int o.max_heap_words;
      "find_races=" ^ string_of_bool o.find_races;
      "lint=" ^ string_of_bool o.lint;
      "interfere=" ^ string_of_bool o.interfere;
      "jobs=" ^ string_of_int o.jobs;
      "retries=" ^ string_of_int o.retries;
    ]

(* The abstract machine and the interference engine model the SC
   interleaving semantics only: their transfer functions know nothing
   of store buffers, so running them under TSO/PSO would silently
   verify against the wrong semantics.  Refused loudly instead. *)
let check_model_support (o : options) =
  if o.memory_model <> Step.Sc then begin
    (match o.engine with
    | Abstract _ ->
        invalid_arg
          (Printf.sprintf
             "the abstract engine models SC only; it cannot run under --memory-model %s"
             (Step.model_name o.memory_model))
    | Concrete_full | Concrete_stubborn -> ());
    if o.interfere then
      invalid_arg
        (Printf.sprintf
           "the interference analysis models SC only; it cannot run under --memory-model %s"
           (Step.model_name o.memory_model))
  end

(* The exit-code policy (1 > 5 > 3 > 2 > 4 > 0) lives in the pure
   report core. *)
let exit_code = Report.exit_code

let load_source src =
  try
    let prog = Parser.parse_string src in
    Check.check_exn prog;
    prog
  with Lexer.Error (msg, pos) ->
    (* surface lexical errors with their position, like syntax errors *)
    raise (Parser.Error ("lexical error: " ^ msg, pos))

let load_file path =
  try
    let prog = Parser.parse_file path in
    Check.check_exn prog;
    prog
  with Lexer.Error (msg, pos) ->
    raise (Parser.Error ("lexical error: " ^ msg, pos))

let transform (opts : options) prog =
  let prog = if opts.inline then Inline.program prog else prog in
  let prog = if opts.coarsen then Coarsen.program prog else prog in
  prog

(* The digest-addressed key a run's result is memoized under — the same
   key the CLI's --manifest records (which digests the post-transform
   program), derivable *before* analysis: transforms are cheap and
   deterministic, so the serve daemon computes the key, looks its cache
   up, and only analyzes on a miss. *)
let run_key (o : options) prog =
  Cobegin_obs.Manifest.key
    ~program_digest:(Report.program_digest (transform o prog))
    ~options_fingerprint:(options_fingerprint o)
    ~memory_model:(Step.model_name o.memory_model)

let empty_log =
  { Event.accesses = []; allocs = []; precise_pstrings = true }

(* Run the chosen engine under [budget], returning stats, the unified
   log, the completion status, and the race set when the race scan ran
   as the exploration's visitor.  [spans] reaches the parallel engine
   so each worker domain records its own trace lane. *)
let run_engine ~budget ?probe ?spans (opts : options) prog :
    exploration_stats * Event.log * Budget.status * Race.RaceSet.t option =
  match opts.engine with
  | Concrete_full | Concrete_stubborn ->
      let ctx = Step.make_ctx ~model:opts.memory_model prog in
      (* jobs > 1 runs the multi-domain engine; jobs <= 1 is the
         sequential engine, byte-for-byte, and there the race scan rides
         along as the BFS's visitor.  The stubborn strategy keeps
         mutable selection state, so it stays sequential whatever
         [jobs] says, and its persistent sets drop co-enabled pairs, so
         its races come from a standalone full pass. *)
      let result, races =
        match opts.engine with
        | Concrete_full when opts.jobs > 1 ->
            (Parallel.full ~jobs:opts.jobs ~budget ?probe ?spans ctx, None)
        | Concrete_full when opts.find_races ->
            let result, races = Race.explore ~budget ?probe ctx in
            (result, Some races)
        | Concrete_full -> (Space.full ~budget ?probe ctx, None)
        | _ -> (Stubborn.explore ~budget ?probe ctx, None)
      in
      ( {
          configurations = result.Space.stats.Space.configurations;
          transitions = result.Space.stats.Space.transitions;
          max_frontier = result.Space.stats.Space.max_frontier;
          finals = result.Space.stats.Space.finals;
          deadlocks = result.Space.stats.Space.deadlocks;
          errors = result.Space.stats.Space.errors;
        },
        Event.of_concrete result.Space.log,
        result.Space.status,
        races )
  | Abstract (domain, folding) ->
      let summary = Analyzer.analyze ~domain ~folding ~budget ?probe prog in
      ( {
          configurations = summary.Analyzer.abstract_configs;
          transitions = 0;
          max_frontier = summary.Analyzer.max_frontier;
          finals = summary.Analyzer.finals;
          deadlocks = 0;
          errors = summary.Analyzer.errors;
        },
        Event.of_abstract summary.Analyzer.log,
        summary.Analyzer.status,
        None )

(* [spans] records one wall-clock span per stage (nested under whatever
   span is already open in the recorder); [probe] is ticked by the
   engines and the race scan, with the pipeline's budget attached for
   headroom reporting. *)
let analyze ?(options = default_options) ?spans ?probe (prog : Ast.program)
    : report =
  check_model_support options;
  Check.check_exn prog;
  let prog = transform options prog in
  let budget = budget_of_options options in
  Option.iter (fun p -> Cobegin_obs.Probe.set_budget p budget) probe;
  (* only the spans completed by this call end up in [report.telemetry]:
     a reusable recorder may already hold events from earlier runs *)
  let pre_events =
    match spans with None -> 0 | Some t -> Span.event_count t
  in
  let failures = ref [] in
  let recovery = ref [] in
  (* A failed attempt's backtrace: prefer the one a failed parallel
     worker captured on its own domain; else whatever the runtime
     recorded here (empty unless --debug / record_backtrace). *)
  let backtrace_text cause bt =
    match cause with
    | Parallel.Worker_failed { backtrace; _ } when String.trim backtrace <> ""
      ->
        Some backtrace
    | _ ->
        let s = Printexc.raw_backtrace_to_string bt in
        if String.trim s = "" then None else Some s
  in
  let action_label = function
    | Retry -> "retry"
    | Degrade_jobs { from_jobs; to_jobs } ->
        Printf.sprintf "degrade_jobs %d->%d" from_jobs to_jobs
    | Give_up -> "give_up"
  in
  (* Every failed attempt dumps the flight recorder to the journal's
     log, so the engine's last ring of events survives retries and
     degradation rungs too; the give-up's dump is additionally attached
     to the stage_failure (via [record_failure]), which takes its own
     dump — so skip the log dump here to avoid a duplicate record. *)
  let record_rung ~stage ~attempt ~action cause bt =
    let diagnostic = Printexc.to_string cause in
    if Journal.enabled () then begin
      Journal.emit ~level:Journal.Warn "pipeline.recovery"
        [
          ("stage", Journal.Str stage);
          ("attempt", Journal.Int attempt);
          ("action", Journal.Str (action_label action));
          ("diagnostic", Journal.Str diagnostic);
        ];
      if action <> Give_up then
        ignore
          (Journal.flight_dump
             ~reason:
               (Printf.sprintf "%s attempt %d failed: %s" stage attempt
                  diagnostic)
             ()
            : string list)
    end;
    recovery :=
      {
        r_stage = stage;
        r_attempt = attempt;
        r_diagnostic = diagnostic;
        r_backtrace = backtrace_text cause bt;
        r_action = action;
      }
      :: !recovery
  in
  let record_failure ~stage cause bt =
    let diagnostic = Printexc.to_string cause in
    let flight =
      if Journal.enabled () then begin
        Journal.emit ~level:Journal.Error "pipeline.stage_failed"
          [
            ("stage", Journal.Str stage);
            ("diagnostic", Journal.Str diagnostic);
          ];
        Journal.flight_dump
          ~reason:(Printf.sprintf "stage %s gave up: %s" stage diagnostic)
          ()
      end
      else []
    in
    failures :=
      {
        stage;
        diagnostic;
        backtrace = backtrace_text cause bt;
        flight;
      }
      :: !failures
  in
  let run_body name f =
    Fault.hit ("pipeline." ^ name);
    if Journal.enabled () then
      Journal.emit ~level:Journal.Debug "pipeline.stage"
        [ ("stage", Journal.Str name) ];
    match spans with None -> f () | Some t -> Span.with_span t name f
  in
  (* Supervised stage: up to [1 + retries] attempts; every failed
     attempt is a recovery rung, only the final one (the give-up) is a
     stage failure, so a retried-and-completed stage reports clean
     results plus its ladder. *)
  let stage name ~default f =
    let attempts = 1 + max 0 options.retries in
    let rec go attempt =
      try run_body name f
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        if attempt < attempts then begin
          record_rung ~stage:name ~attempt ~action:Retry e bt;
          Metrics.incr m_retries;
          go (attempt + 1)
        end
        else begin
          record_rung ~stage:name ~attempt ~action:Give_up e bt;
          record_failure ~stage:name e bt;
          default
        end
    in
    go 1
  in
  (* the static lints run before (and independently of) exploration:
     they are polynomial in program size, so no budget governs them *)
  let static =
    if options.lint then
      stage "static-lint" ~default:None (fun () ->
          Some (Cobegin_static.Lint.run prog))
    else None
  in
  (* the interference engine is thread-modular — polynomial, but its
     fixpoint runs under the shared budget (rounds count as
     configurations), so a pipeline deadline boxes it too *)
  let interference =
    if options.interfere then
      let domain =
        match options.engine with
        | Abstract (d, _) -> d
        | Concrete_full | Concrete_stubborn -> Analyzer.Intervals
      in
      stage "interfere" ~default:None (fun () ->
          Some (Interfere.run ~domain ~budget ?probe prog))
    else None
  in
  (* Exploration runs under a degradation ladder instead of the plain
     retry loop: a multi-domain crash first falls back to the
     sequential engine (jobs N -> 1), then retries sequentially, and
     only then gives up — returning empty stats tagged
     [Truncated (Crash _)], never a fabricated [Complete].  One budget
     spans all rungs, so the ladder honors the end-to-end time box.
     Each rung that runs the race visitor starts a fresh race set. *)
  let empty_stats =
    {
      configurations = 0;
      transitions = 0;
      max_frontier = 0;
      finals = 0;
      deadlocks = 0;
      errors = 0;
    }
  in
  let stats, log, status, explored_races =
    let ladder =
      (if options.jobs > 1 then [ options; { options with jobs = 1 } ]
       else [ options ])
      @ List.init (max 0 options.retries) (fun _ -> { options with jobs = 1 })
    in
    let rec go attempt = function
      | [] -> assert false
      | o :: rest -> (
          match
            run_body "exploration" (fun () ->
                run_engine ~budget ?probe ?spans o prog)
          with
          | r -> r
          | exception e -> (
              let bt = Printexc.get_raw_backtrace () in
              let action =
                match rest with
                | next :: _ when next.jobs < o.jobs ->
                    Degrade_jobs { from_jobs = o.jobs; to_jobs = next.jobs }
                | _ :: _ -> Retry
                | [] -> Give_up
              in
              record_rung ~stage:"exploration" ~attempt ~action e bt;
              match action with
              | Give_up ->
                  record_failure ~stage:"exploration" e bt;
                  ( empty_stats,
                    empty_log,
                    Budget.Truncated
                      (Budget.Crash
                         ("exploration: " ^ Printexc.to_string e)),
                    None )
              | Retry | Degrade_jobs _ ->
                  Metrics.incr m_retries;
                  go (attempt + 1) rest))
    in
    go 1 ladder
  in
  let side_effects =
    stage "side-effects" ~default:[] (fun () ->
        Side_effect.of_program log prog)
  in
  let deps =
    stage "dependences" ~default:Depend.DepSet.empty (fun () ->
        Depend.of_log log)
  in
  let lifetimes =
    stage "lifetimes" ~default:[] (fun () -> Lifetime.of_log log)
  in
  let placements =
    stage "placement" ~default:[] (fun () -> Placement.decide lifetimes)
  in
  let gc_plan =
    stage "ctgc" ~default:[] (fun () -> Ctgc.deallocation_plan lifetimes)
  in
  (* When the exploration ran the race scan as its visitor, this stage
     only hands the set over; otherwise (stubborn, jobs > 1, or an
     exploration that gave up) it runs a standalone full pass. *)
  let races, status =
    if options.find_races then
      match options.engine with
      | Concrete_full | Concrete_stubborn ->
          let r =
            stage "races"
              ~default:
                { Race.races = Race.RaceSet.empty; status = Budget.Complete }
              (fun () ->
                match explored_races with
                | Some races -> { Race.races; status }
                | None ->
                    Race.find ~budget ?probe
                      (Step.make_ctx ~model:options.memory_model prog))
          in
          (* a races give-up must not masquerade as a complete scan:
             tag the status with the crash instead of the default *)
          let race_status =
            match
              List.find_opt (fun f -> f.stage = "races") !failures
            with
            | Some f ->
                Budget.Truncated (Budget.Crash ("races: " ^ f.diagnostic))
            | None -> r.Race.status
          in
          (Some r.Race.races, Budget.combine status race_status)
      | Abstract _ -> (None, status)
    else (None, status)
  in
  let critical =
    stage "critical" ~default:Critical.no_conflicts (fun () ->
        Critical.of_program prog)
  in
  let telemetry =
    match spans with
    | None -> []
    | Some t ->
        List.filteri (fun i _ -> i >= pre_events) (Span.durations t)
  in
  let degraded =
    match status with Budget.Truncated (Budget.Crash _) -> true | _ -> false
  in
  if Journal.enabled () then
    Journal.emit ~level:Journal.Info "pipeline.done"
      [
        ("engine", Journal.Str (Report.engine_name options.engine));
        ("configurations", Journal.Int stats.configurations);
        ("transitions", Journal.Int stats.transitions);
        ("complete", Journal.Bool (status = Budget.Complete));
        ("degraded", Journal.Bool degraded);
      ];
  {
    program = prog;
    engine_used = options.engine;
    memory_model = options.memory_model;
    stats;
    status;
    budget =
      Budget.snapshot budget ~configs:stats.configurations
        ~transitions:stats.transitions;
    stage_failures = List.rev !failures;
    recovery = List.rev !recovery;
    degraded;
    log;
    side_effects;
    deps;
    lifetimes;
    placements;
    gc_plan;
    races;
    critical;
    static;
    interference;
    telemetry;
  }

let analyze_source ?options ?spans ?probe src =
  analyze ?options ?spans ?probe (load_source src)

(* Parallelization report for segment-shaped programs (Figure 8). *)
let parallelization (r : report) : Parallelize.report =
  Parallelize.analyze r.program r.log

let pp_stats ppf (s : exploration_stats) =
  Format.fprintf ppf
    "configurations=%d transitions=%d max_frontier=%d finals=%d deadlocks=%d \
     errors=%d"
    s.configurations s.transitions s.max_frontier s.finals s.deadlocks
    s.errors

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>engine: %a@ %a@ status: %a%a@ @ critical references: %a@ @ side \
     effects:@ %a@ @ parallel dependences:@ %a@ @ lifetimes:@ %a@ @ \
     placement:@ %a@ @ deallocation plan:@ %a%a%a%a%a@]"
    pp_engine r.engine_used pp_stats r.stats Budget.pp_status r.status
    (fun ppf (fs, rungs) ->
      List.iter (fun f -> Format.fprintf ppf "@ %a" pp_stage_failure f) fs;
      match rungs with
      | [] -> ()
      | rungs ->
          Format.fprintf ppf "@ recovery:";
          List.iter
            (fun rung -> Format.fprintf ppf "@   %a" pp_recovery_rung rung)
            rungs)
    (r.stage_failures, r.recovery)
    Critical.pp r.critical
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Side_effect.pp_report)
    r.side_effects Depend.pp_deps
    (Depend.DepSet.filter (fun d -> d.Depend.parallel) r.deps)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Lifetime.pp_info)
    r.lifetimes Placement.pp r.placements Ctgc.pp r.gc_plan
    (fun ppf -> function
      | None -> ()
      | Some races -> Format.fprintf ppf "@ @ races:@ %a" Race.pp races)
    r.races
    (fun ppf -> function
      | None -> ()
      | Some static ->
          Format.fprintf ppf "@ @ static lints:@ %a" Cobegin_static.Lint.pp
            static)
    r.static
    (fun ppf -> function
      | None -> ()
      | Some s -> Format.fprintf ppf "@ @ %a" Interfere.pp_summary s)
    r.interference
    (fun ppf -> function
      | [] -> ()
      | telemetry ->
          Format.fprintf ppf "@ @ telemetry (stage wall seconds):";
          List.iter
            (fun (name, dur) ->
              Format.fprintf ppf "@   %-14s %.6f" name dur)
            telemetry)
    r.telemetry
