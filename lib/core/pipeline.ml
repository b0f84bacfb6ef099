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

(* The options table (see the interface).  Rows stay in declaration
   order and a row's [name] is its record field's: run keys and
   disk-cache entries hash the fingerprint built from both. *)

type value = Bool of bool | Int of int | Float of float | Name of string

type field = {
  name : string;
  key : string;
  flags : string list;
  docv : string;
  doc : string;
  read : (string -> value option) option;
  expect : string;
  parse : value -> (options -> options) option;
  print : options -> value option;
  lower : cap:options -> options -> options;
}

let string_of_value = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float x -> Printf.sprintf "%.17g" x
  | Name s -> s

let read_int s = Option.map (fun i -> Int i) (int_of_string_opt s)
let read_float s = Option.map (fun x -> Float x) (float_of_string_opt s)

(* OCaml heap words: --max-heap-mb is the one flag in other units than
   its field *)
let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

let read_mb s =
  match int_of_string_opt s with
  | Some mb when mb > 0 && mb <= max_int / words_per_mb ->
      Some (Int (mb * words_per_mb))
  | _ -> None

let positive_int = function Int i when i > 0 -> Some i | _ -> None

let positive_float = function
  | Int i when i > 0 -> Some (float_of_int i)
  | Float x when x > 0. && Float.is_finite x -> Some x
  | _ -> None

(* a row from the field's accessors and how its values read and print *)
let row ~name ?(key = name) ~flags ?(docv = "") ?read ~expect
    ?(lower = fun ~cap:_ o -> o) ~doc ~of_value ~to_value get set =
  {
    name;
    key;
    flags;
    docv;
    doc;
    read;
    expect;
    parse = (fun v -> Option.map (fun x o -> set o x) (of_value v));
    print = (fun o -> to_value (get o));
    lower;
  }

let switch ~name ~key ~doc get set =
  row ~name ~key ~flags:[ key ] ~expect:"a boolean" ~doc
    ~of_value:(function Bool b -> Some b | _ -> None)
    ~to_value:(fun b -> Some (Bool b))
    get set

let choice ~name ~flags ~docv ~expect ~doc of_string to_string get set =
  row ~name ~flags ~docv ~read:(fun s -> Some (Name s)) ~expect ~doc
    ~of_value:(function Name s -> of_string s | _ -> None)
    ~to_value:(fun x -> Some (Name (to_string x)))
    get set

(* a count the server's value caps *)
let count ~name ~flags ~least ~doc get set =
  row ~name ~flags ~docv:"N" ~read:read_int ~doc
    ~expect:
      (if least > 0 then "a positive integer" else "a non-negative integer")
    ~of_value:(function Int i when i >= least -> Some i | _ -> None)
    ~to_value:(fun i -> Some (Int i))
    ~lower:(fun ~cap o -> set o (min (get cap) (get o)))
    get set

(* an optional limit: a request may lower the server's, or set one
   where the server has none *)
let limit ~name ~flags ~docv ~read ~expect ~accept ~value ~doc get set =
  row ~name ~flags ~docv ~read ~expect ~doc
    ~of_value:(fun v -> Option.map Option.some (accept v))
    ~to_value:(Option.map value)
    ~lower:(fun ~cap o ->
      match (get cap, get o) with
      | Some c, Some x -> set o (Some (min c x))
      | _ -> o)
    get set

let fields =
  [
    choice ~name:"engine" ~flags:[ "engine"; "e" ] ~docv:"ENGINE"
      ~expect:"full, stubborn or abstract[/DOMAIN[/FOLDING]]"
      ~doc:
        "Exploration engine: $(b,full) (also $(b,concrete/full)), \
         $(b,stubborn) (also $(b,concrete/stubborn)), or \
         $(b,abstract)[/DOMAIN[/FOLDING]] — abstract interpretation over \
         DOMAIN $(b,intervals) (the default), $(b,constants), $(b,signs), \
         $(b,parity) or $(b,interval-parity), folding configurations by \
         FOLDING $(b,exact), $(b,control) (Taylor, the default) or \
         $(b,clan) (McDowell).  Every report names its engine in this \
         form."
      Report.engine_of_string Report.engine_name
      (fun o -> o.engine)
      (fun o engine -> { o with engine });
    choice ~name:"memory_model" ~flags:[ "memory-model" ] ~docv:"MODEL"
      ~expect:"sc, tso or pso"
      ~doc:
        "Memory model of the concrete semantics: $(b,sc) (default, the \
         paper's interleaving semantics), $(b,tso) (per-process FIFO store \
         buffers, only the oldest write may flush) or $(b,pso) (the oldest \
         write per location may flush, so stores to distinct locations \
         reorder).  Under tso/pso plain assignments buffer and publish via \
         nondeterministic flush transitions; \
         $(b,fence)/$(b,atomic)/$(b,lock)/$(b,unlock) wait for the issuing \
         process's buffer to drain.  The abstract engine and \
         $(b,--interfere) model SC only and refuse tso/pso."
      Step.model_of_string Step.model_name
      (fun o -> o.memory_model)
      (fun o memory_model -> { o with memory_model });
    switch ~name:"coarsen" ~key:"coarsen"
      ~doc:"Apply virtual coarsening (Observation 5) before exploring."
      (fun o -> o.coarsen)
      (fun o coarsen -> { o with coarsen });
    switch ~name:"inline" ~key:"inline"
      ~doc:"Inline non-recursive procedure calls first."
      (fun o -> o.inline)
      (fun o inline -> { o with inline });
    count ~name:"max_configs" ~flags:[ "max-configs" ] ~least:1
      ~doc:"Exploration budget (configurations)."
      (fun o -> o.max_configs)
      (fun o max_configs -> { o with max_configs });
    limit ~name:"max_transitions" ~flags:[ "max-transitions" ] ~docv:"N"
      ~read:read_int ~expect:"a positive integer" ~accept:positive_int
      ~value:(fun i -> Int i)
      ~doc:"Exploration budget (fired transitions)."
      (fun o -> o.max_transitions)
      (fun o max_transitions -> { o with max_transitions });
    limit ~name:"timeout_s" ~flags:[ "timeout" ] ~docv:"SECS"
      ~read:read_float ~expect:"a positive number" ~accept:positive_float
      ~value:(fun x -> Float x)
      ~doc:
        "Wall-clock deadline for the whole run, in seconds.  On expiry the \
         partial results are printed and the exit code is 2."
      (fun o -> o.timeout_s)
      (fun o timeout_s -> { o with timeout_s });
    limit ~name:"max_heap_words" ~flags:[ "max-heap-mb" ] ~docv:"MB"
      ~read:read_mb ~expect:"a positive integer" ~accept:positive_int
      ~value:(fun i -> Int i)
      ~doc:
        "Truncate the run when the OCaml major heap exceeds this many \
         megabytes (a request gives the limit in heap words, \
         $(b,max_heap_words))."
      (fun o -> o.max_heap_words)
      (fun o max_heap_words -> { o with max_heap_words });
    switch ~name:"find_races" ~key:"races"
      ~doc:"Also run the co-enabledness race scan."
      (fun o -> o.find_races)
      (fun o find_races -> { o with find_races });
    switch ~name:"lint" ~key:"lint"
      ~doc:
        "Also run the static concurrency lint suite (MHP, locksets, \
         lock-order cycles) as a budget-free pre-stage.  Findings make the \
         exit code 4."
      (fun o -> o.lint)
      (fun o lint -> { o with lint });
    switch ~name:"interfere" ~key:"interfere"
      ~doc:
        "Also run the thread-modular interference analysis (rely-guarantee \
         abstract interpretation) as a supervised pipeline stage."
      (fun o -> o.interfere)
      (fun o interfere -> { o with interfere });
    count ~name:"jobs" ~flags:[ "jobs"; "j" ] ~least:1
      ~doc:
        "Explore on $(docv) OCaml domains (concrete full engine only; \
         default 1 = the sequential engine).  Complete runs produce the \
         same configuration/transition counts and final stores as the \
         sequential engine."
      (fun o -> o.jobs)
      (fun o jobs -> { o with jobs });
    count ~name:"retries" ~flags:[ "retries" ] ~least:0
      ~doc:
        "Extra attempts the supervisor grants a crashed pipeline stage \
         (default 1).  Exploration walks its degradation ladder \
         ($(b,--jobs) N, then 1 domain) before same-options retries.  0 \
         disables retrying."
      (fun o -> o.retries)
      (fun o retries -> { o with retries });
  ]

type exploration_stats = Report.exploration_stats = {
  configurations : int;
  transitions : int; (* for abstract engines, the shapes fired *)
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

(* One component of the digest-addressed run-manifest key
   ([Cobegin_obs.Manifest.key]): two option records fingerprint equally
   iff they request the same analysis. *)
let options_fingerprint (o : options) =
  String.concat ";"
    (List.map
       (fun f ->
         f.name ^ "="
         ^ match f.print o with None -> "none" | Some v -> string_of_value v)
       fields)

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

let read_program path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | src -> (
      try Ok (load_source src) with
      | Parser.Error (msg, pos) ->
          Error (Format.asprintf "%a" Parser.pp_error (msg, pos))
      | Check.Ill_formed diags ->
          Error
            (Format.asprintf "@[<v>%a@]"
               (Format.pp_print_list Check.pp_diagnostic)
               diags))

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
    ~analyzer:(Cobegin_obs.Manifest.analyzer ())
    ~program_digest:(Report.program_digest (transform o prog))
    ~options_fingerprint:(options_fingerprint o)
    ~memory_model:(Step.model_name o.memory_model)

let empty_log =
  { Event.accesses = []; allocs = []; precise_pstrings = true }

(* Run the chosen engine under [budget], returning stats, the unified
   log, the completion status, and the race set when the race scan ran
   as the exploration's visitor.  [spans] reaches the parallel engine
   so each worker domain records its own trace lane. *)
let run_engine ~budget ?spans (opts : options) prog :
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
            (Parallel.full ~jobs:opts.jobs ~budget ?spans ctx, None)
        | Concrete_full when opts.find_races ->
            let result, races = Race.explore ~budget ctx in
            (result, Some races)
        | Concrete_full -> (Space.full ~budget ctx, None)
        | _ -> (Stubborn.explore ~budget ctx, None)
      in
      ( result.Space.stats,
        Event.of_concrete result.Space.log,
        result.Space.status,
        races )
  | Abstract (domain, folding) ->
      let summary = Analyzer.analyze ~domain ~folding ~budget prog in
      ( {
          configurations = summary.Analyzer.abstract_configs;
          transitions = summary.Analyzer.transitions;
          max_frontier = summary.Analyzer.max_frontier;
          finals = summary.Analyzer.finals;
          deadlocks = 0;
          errors = summary.Analyzer.errors;
        },
        Event.of_abstract summary.Analyzer.log,
        summary.Analyzer.status,
        None )

(* [spans] records one wall-clock span per stage (nested under whatever
   span is already open in the recorder). *)
let analyze ?(options = default_options) ?spans (prog : Ast.program) :
    report =
  check_model_support options;
  Check.check_exn prog;
  let prog = transform options prog in
  let budget = budget_of_options options in
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
     results plus its ladder.  A give-up's value is [default] of its
     diagnostic. *)
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
          default (Printexc.to_string e)
        end
    in
    go 1
  in
  (* The static base (MHP and locksets) of the lint and the interference
     engine, built inside whichever of the two stages runs first.  Only
     a success is kept: a crash while building it stays that stage's
     failure, and the other stage then builds its own. *)
  let base = ref None in
  let static_base () =
    match !base with
    | Some ls -> ls
    | None ->
        let ls = Cobegin_static.Lockset.of_program prog in
        base := Some ls;
        ls
  in
  (* the static lints run before (and independently of) exploration:
     they are polynomial in program size, so no budget governs them *)
  let static =
    if options.lint then
      stage "static-lint" ~default:(fun _ -> None) (fun () ->
          Some (Cobegin_static.Lint.run (static_base ())))
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
      stage "interfere" ~default:(fun _ -> None) (fun () ->
          Some (Interfere.run ~domain ~budget (static_base ())))
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
                run_engine ~budget ?spans o prog)
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
    stage "side-effects" ~default:(fun _ -> []) (fun () ->
        Side_effect.of_program log prog)
  in
  let deps =
    stage "dependences" ~default:(fun _ -> Depend.DepSet.empty) (fun () ->
        Depend.of_log log)
  in
  let lifetimes =
    stage "lifetimes" ~default:(fun _ -> []) (fun () -> Lifetime.of_log log)
  in
  let placements =
    stage "placement" ~default:(fun _ -> []) (fun () ->
        Placement.decide lifetimes)
  in
  let gc_plan =
    stage "ctgc" ~default:(fun _ -> []) (fun () ->
        Ctgc.deallocation_plan lifetimes)
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
              ~default:(fun d ->
                (* a races give-up must not masquerade as a complete
                   scan *)
                {
                  Race.races = Race.RaceSet.empty;
                  status = Budget.Truncated (Budget.Crash ("races: " ^ d));
                })
              (fun () ->
                match explored_races with
                | Some races -> { Race.races; status }
                | None ->
                    Race.find ~budget
                      (Step.make_ctx ~model:options.memory_model prog))
          in
          (Some r.Race.races, Budget.combine status r.Race.status)
      | Abstract _ -> (None, status)
    else (None, status)
  in
  let critical =
    stage "critical" ~default:(fun _ -> Critical.no_conflicts) (fun () ->
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

let analyze_source ?options ?spans src =
  analyze ?options ?spans (load_source src)

(* Parallelization report for segment-shaped programs (Figure 8). *)
let parallelization (r : report) : Parallelize.report =
  Parallelize.analyze r.program r.log

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>engine: %s@ %a@ status: %a%a@ @ critical references: %a@ @ side \
     effects:@ %a@ @ parallel dependences:@ %a@ @ lifetimes:@ %a@ @ \
     placement:@ %a@ @ deallocation plan:@ %a%a%a%a%a@]"
    (Report.engine_name r.engine_used)
    Kernel.pp_stats r.stats Budget.pp_status r.status
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
