(** The analyzer pipeline — the paper's framework end to end:

    {v
source → parse → check → (coarsen | inline)
       → exploration (full | stubborn) or abstract interpretation
       → instrumentation log
       → side effects, dependences, lifetimes            (section 5)
       → parallelization, placement, compile-time GC     (section 7)
    v}

    This is the one-call API; the individual libraries remain available
    for finer control.

    The report data model — {!engine}, {!exploration_stats},
    {!stage_failure}, {!recovery_rung}, {!report} — and its pure
    consumers ({!exit_code}, [Report.to_json]) live in {!Report}; this
    module re-exports the types (the equations below), so existing code
    keeps addressing them as [Pipeline.report] etc., and keeps every
    pretty-printer.

    Resource governance: one {!Budget.t} — built from the limits in
    {!options} — governs the engine run and the race scan together.
    Exhaustion never raises; the report comes back with
    [status = Truncated _] and partial results.  Each section-5/7
    analysis runs under a per-stage guard: a crashing stage contributes
    its default (empty) result plus a {!stage_failure} diagnostic
    instead of aborting the pipeline.

    Observability: when the process journal ({!Cobegin_obs.Journal}) is
    running, the pipeline emits stage/recovery events, every failed
    attempt dumps the flight-recorder ring to the journal's log, and a
    stage that gives up carries the dump in
    [stage_failure.flight]. *)

open Cobegin_lang
open Cobegin_trans
open Cobegin_semantics
open Cobegin_absint
open Cobegin_analysis
open Cobegin_apps

(** Which engine produces the instrumentation log. *)
type engine = Report.engine =
  | Concrete_full  (** ordinary state-space generation *)
  | Concrete_stubborn  (** with persistent/stubborn-set reduction *)
  | Abstract of Analyzer.domain * Machine.folding
      (** abstract interpretation: numeric domain × configuration folding *)

type options = {
  engine : engine;
  memory_model : Step.model;
      (** memory model of the concrete semantics ({!Step.Sc} default).
          TSO/PSO apply to the concrete engines, the race scan and the
          direct executors; {!analyze} raises [Invalid_argument] when a
          non-SC model is combined with the [Abstract] engine or
          [interfere] — both model the SC interleaving semantics only *)
  coarsen : bool;  (** apply virtual coarsening first (Observation 5) *)
  inline : bool;  (** inline non-recursive calls first *)
  max_configs : int;  (** exploration budget *)
  max_transitions : int option;  (** transition/edge budget *)
  timeout_s : float option;  (** wall-clock deadline for the whole run *)
  max_heap_words : int option;  (** GC major-heap watermark *)
  find_races : bool;  (** run the co-enabledness race scan too *)
  lint : bool;
      (** run the static concurrency lints ({!Cobegin_static.Lint}) as a
          budget-free pre-stage *)
  interfere : bool;
      (** run the thread-modular interference analysis
          ({!Cobegin_absint.Interfere}) as a supervised stage before
          exploration; its fixpoint rounds are governed by the shared
          budget.  The numeric domain follows the [Abstract] engine's
          when one is selected, intervals otherwise. *)
  jobs : int;
      (** exploration domains.  [1] (the default) runs the sequential
          engine; [> 1] runs {!Cobegin_explore.Parallel} for the
          concrete full engine — complete runs produce identical
          counts and terminal multisets, see the engine's docs.  The
          stubborn strategy and the abstract engines stay sequential
          regardless. *)
  retries : int;
      (** extra attempts the supervisor grants a crashed stage (default
          1).  Exploration additionally walks the degradation ladder
          first: a multi-domain crash falls back to [jobs = 1] before
          any same-options retry.  [0] disables retrying. *)
}

val default_options : options
(** Concrete full engine under SC, no transforms, 500k configuration
    budget, no transition/time/heap limits, no race scan, no static
    lints, no interference analysis, one exploration domain, one retry
    per crashed stage. *)

val budget_of_options : options -> Budget.t
(** The budget {!analyze} runs under, fresh each call.  Created in
    shared (multi-domain) mode when [jobs > 1], so truncation latches
    a single reason across the worker domains. *)

(** {2 The options table}

    Each field of {!options} is described once, by one row of
    {!fields}.  The CLI flags ([Cobegin_serve.Cli]), the request decoder
    and encoder ([Cobegin_serve.Serve]) and {!options_fingerprint} are
    folds over the table, so a new option is one more row. *)

(** A field's value as the CLI and a request spell it. *)
type value = Bool of bool | Int of int | Float of float | Name of string

type field = {
  name : string;  (** the record field's name, its fingerprint key *)
  key : string;  (** the request key *)
  flags : string list;  (** the CLI flag names, without dashes *)
  docv : string;
  doc : string;  (** the CLI doc, in cmdliner markup *)
  read : (string -> value option) option;
      (** how a CLI argument reads; [None] for a switch, whose presence
          means [Bool true] *)
  expect : string;  (** what {!parse} accepts, for error messages *)
  parse : value -> (options -> options) option;
      (** the one parser: checks the value's type and range and returns
          the update; [None] refuses it *)
  print : options -> value option;
      (** the one printer; [None] for an absent optional limit *)
  lower : cap:options -> options -> options;
      (** how a request may lower the server's value [cap]: budgets,
          [jobs] and [retries] are capped, the rest are free *)
}

val fields : field list
(** The table, in the record's declaration order. *)

val string_of_value : value -> string
(** A value's text in the fingerprint: floats print with [%.17g], so
    two distinct timeouts never share a run key. *)

val options_fingerprint : options -> string
(** Canonical fingerprint of an option record: every row of {!fields},
    in order, as [name=value] ([none] for an absent limit) joined by
    [";"] — one component of the digest-addressed run-manifest key
    ({!Cobegin_obs.Manifest.key}).  Two records fingerprint equally iff
    they request the same analysis (deliberately including [jobs] and
    [retries]: a degraded ladder changes what ran). *)

val run_key : options -> Ast.program -> string
(** The digest-addressed key the run's result is memoized under — the
    {!Cobegin_obs.Manifest.key} of the post-transform program digest,
    {!options_fingerprint}, memory model, the running analyzer build
    ({!Cobegin_obs.Manifest.analyzer}) and manifest format version,
    identical to the key a [--manifest] record of the same run carries.
    Cheap (transforms are linear), so a result cache derives it before
    deciding whether to analyze at all. *)

type exploration_stats = Report.exploration_stats = {
  configurations : int;
  transitions : int;
      (** actions fired; for abstract engines, the shapes fired *)
  max_frontier : int;  (** peak worklist size during the engine run *)
  finals : int;
  deadlocks : int;  (** 0 for abstract engines *)
  errors : int;
}

type stage_failure = Report.stage_failure = {
  stage : string;  (** e.g. ["side-effects"], ["races"] *)
  diagnostic : string;  (** printed form of the escaping exception *)
  backtrace : string option;
      (** the raised backtrace, when one was recorded
          ([Printexc.record_backtrace] — the CLI's [--debug] — or a
          parallel worker's own capture); [None] otherwise *)
  flight : string list;
      (** the journal flight-recorder dump taken at the give-up — the
          ring's events as pre-rendered JSON lines, oldest first; empty
          when the journal was not running *)
}

val pp_stage_failure : Format.formatter -> stage_failure -> unit

(** {2 Supervision}

    Every stage runs under a supervisor: a crashing stage is retried up
    to [retries] times; the exploration stage first walks a degradation
    ladder ([jobs N -> jobs 1 -> give up]).  Each failed attempt is
    recorded as a rung.  A stage that eventually succeeds reports clean
    results plus its rungs; a stage that gives up contributes its
    default result, a {!stage_failure}, and — for the result-bearing
    stages (exploration, races) — a [Truncated (Crash _)] status, so a
    degraded report is never mistaken for a complete one. *)

type recovery_action = Report.recovery_action =
  | Retry  (** same options, next attempt *)
  | Degrade_jobs of { from_jobs : int; to_jobs : int }
      (** exploration fell back toward the sequential engine *)
  | Give_up  (** ladder exhausted; the stage's default stands *)

type recovery_rung = Report.recovery_rung = {
  r_stage : string;
  r_attempt : int;  (** 1-based attempt that failed *)
  r_diagnostic : string;
  r_backtrace : string option;
  r_action : recovery_action;  (** what the supervisor did next *)
}

val pp_recovery_action : Format.formatter -> recovery_action -> unit
val pp_recovery_rung : Format.formatter -> recovery_rung -> unit

type report = Report.report = {
  program : Ast.program;  (** the program after transforms *)
  engine_used : engine;
  memory_model : Step.model;
      (** the model the concrete semantics ran under (always the
          requested one, even for abstract engines — which only accept
          {!Step.Sc}) *)
  stats : exploration_stats;
  status : Budget.status;
      (** [Truncated _] if any budget fired during exploration or the
          race scan; the rest of the report describes the partial run *)
  budget : Budget.headroom list;
      (** consumed vs limit for each configured budget dimension,
          sampled when the pipeline finished *)
  stage_failures : stage_failure list;
      (** analyses that crashed {e and exhausted their ladder}; their
          report fields hold defaults *)
  recovery : recovery_rung list;
      (** every failed stage attempt and what the supervisor did, in
          firing order; empty on an undisturbed run *)
  degraded : bool;
      (** a result-bearing stage gave up: [status] carries
          [Truncated (Crash _)] and the report is an honest partial
          result — the CLI surfaces this as a DEGRADED banner and exit
          code 5 *)
  log : Event.log;  (** unified instrumentation log *)
  side_effects : Side_effect.report list;  (** one per procedure *)
  deps : Depend.DepSet.t;  (** all dependences (parallel + sequential) *)
  lifetimes : Lifetime.info list;  (** one per object *)
  placements : Placement.decision list;  (** shared vs local memory *)
  gc_plan : Ctgc.entry list;  (** static deallocation points *)
  races : Race.RaceSet.t option;  (** when [find_races] was set *)
  critical : Critical.conflicts;  (** critical-reference report *)
  static : Cobegin_static.Lint.result option;
      (** when [lint] was set; the lints run before exploration and are
          not governed by the budget *)
  interference : Interfere.summary option;
      (** when [interfere] was set; [None] also when the stage crashed
          and exhausted its ladder (see [stage_failures]) *)
  telemetry : (string * float) list;
      (** wall seconds per pipeline stage, in completion order; empty
          unless a span recorder was passed to {!analyze} *)
}

val exit_code :
  ?stage_failures:stage_failure list ->
  ?static_findings:bool ->
  ?degraded:bool ->
  Budget.status ->
  int
(** The process exit code the CLI reports for a finished analysis, in
    severity order: [5] degraded (a result-bearing stage exhausted its
    recovery ladder), else [3] when any stage crashed, else [2] on
    budget truncation, else [4] when the static lints found something,
    else [0].  Usage/input errors exit [1] before a report exists, so
    the full precedence is 1 > 5 > 3 > 2 > 4 > 0. *)

val load_source : string -> Ast.program
(** Parse and check a program from source text.  Lexical errors are
    reported as {!Cobegin_lang.Parser.Error} with their position, the
    same way syntax errors are.
    @raise Cobegin_lang.Parser.Error on lexical or syntax errors
    @raise Cobegin_lang.Check.Ill_formed on static errors *)

val read_program : string -> (Ast.program, string) result
(** {!load_source} on the contents of a file (or pipe), with the
    diagnostic of an unreadable file, a lexical or syntax error, or an
    ill-formed program rendered as the error text. *)

val analyze :
  ?options:options ->
  ?spans:Cobegin_obs.Span.t ->
  Ast.program ->
  report
(** Run the pipeline.  Never raises on budget exhaustion — check
    [report.status] — and never aborts on an analysis-stage crash —
    check [report.stage_failures].  Raises [Invalid_argument] when
    [options.memory_model] is not {!Step.Sc} and the engine is
    [Abstract] or [interfere] is set (SC-only analyses).  Each stage
    hits the fault site [pipeline.<stage>] just before its body runs,
    so a {!Fault} plan can crash any one of them.

    With [options.find_races] and the sequential full engine
    ([jobs <= 1]), the race scan runs as a visitor of the exploration's
    BFS and the [races] stage only hands the set over; the stubborn
    engine and [jobs > 1] keep a standalone full race pass.

    Telemetry: when [spans] is given, every stage runs under a
    wall-clock span named after it, and [report.telemetry] lists the
    per-stage durations of this call (a reusable recorder keeps earlier
    events for trace export but they do not leak into the report).
    Progress goes to the journal: every engine loop emits its
    [*.progress] events there ({!Cobegin_obs.Journal.progress}). *)

val analyze_source :
  ?options:options ->
  ?spans:Cobegin_obs.Span.t ->
  string ->
  report

val parallelization : report -> Parallelize.report
(** Shasha–Snir conflict/delay/parallelization report for programs whose
    entry contains one cobegin of straight-line segments (Figure 8). *)

val pp_report : Format.formatter -> report -> unit
