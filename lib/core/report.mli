(** The pure report core of the analyzer pipeline.

    Everything a finished analysis is, as plain data — engine, stats,
    completion status, budget headroom, supervision ladder, analysis
    products, verdicts, telemetry — plus the canonical JSON rendering
    ({!to_json}) and the exit-code policy ({!exit_code}) computed from
    it.  {b No printing lives here}: the pretty-printers stay in
    {!Pipeline}, which re-exports these types so existing code keeps
    addressing them as [Pipeline.report] etc.

    The JSON is deterministic: set-valued fields render in canonical
    sorted order, so two identical runs produce byte-identical reports
    (modulo wall-clock [telemetry], which is empty unless a span
    recorder was attached). *)

open Cobegin_lang
open Cobegin_semantics
open Cobegin_absint
open Cobegin_analysis
open Cobegin_apps
open Cobegin_trans

val format_version : int
(** Schema version carried in the JSON ([format_version] field) and
    folded into the run-manifest key. *)

(** Which engine produces the instrumentation log. *)
type engine =
  | Concrete_full  (** ordinary state-space generation *)
  | Concrete_stubborn  (** with persistent/stubborn-set reduction *)
  | Abstract of Analyzer.domain * Machine.folding
      (** abstract interpretation: numeric domain × configuration folding *)

val engine_name : engine -> string
(** Stable machine-readable spelling, e.g. ["concrete/full"],
    ["abstract/intervals/control"] — ASCII, unlike the
    pretty-printer. *)

val engine_of_string : string -> engine option
(** The inverse of {!engine_name}, in any case; it also takes ["full"],
    ["stubborn"], ["abstract[/DOMAIN]"] (intervals, control folding),
    the domains' short names and the foldings' authors (["taylor"],
    ["mcdowell"]).  [-e] and a request's ["engine"] both use it. *)

val folding_name : Machine.folding -> string

(** The exploration kernel's counts ({!Kernel.stats}). *)
type exploration_stats = Kernel.stats = {
  configurations : int;
  transitions : int;
      (** actions fired; for abstract engines, the shapes fired *)
  max_frontier : int;  (** peak worklist size during the engine run *)
  finals : int;
  deadlocks : int;  (** 0 for abstract engines *)
  errors : int;
}

type stage_failure = {
  stage : string;  (** e.g. ["side-effects"], ["races"] *)
  diagnostic : string;  (** printed form of the escaping exception *)
  backtrace : string option;
      (** the raised backtrace, when one was recorded
          ([Printexc.record_backtrace] — the CLI's [--debug] — or a
          parallel worker's own capture); [None] otherwise *)
  flight : string list;
      (** the journal's flight-recorder dump taken when the stage gave
          up: the ring buffer's events as pre-rendered JSON lines,
          oldest first.  Empty when {!Cobegin_obs.Journal} was
          disabled. *)
}

type recovery_action =
  | Retry  (** same options, next attempt *)
  | Degrade_jobs of { from_jobs : int; to_jobs : int }
      (** exploration fell back toward the sequential engine *)
  | Give_up  (** ladder exhausted; the stage's default stands *)

type recovery_rung = {
  r_stage : string;
  r_attempt : int;  (** 1-based attempt that failed *)
  r_diagnostic : string;
  r_backtrace : string option;
  r_action : recovery_action;  (** what the supervisor did next *)
}

type report = {
  program : Ast.program;  (** the program after transforms *)
  engine_used : engine;
  memory_model : Step.model;  (** model the concrete semantics ran under *)
  stats : exploration_stats;
  status : Budget.status;
  budget : Budget.headroom list;
      (** consumed vs limit per configured budget dimension, sampled
          when the pipeline finished *)
  stage_failures : stage_failure list;
  recovery : recovery_rung list;
  degraded : bool;
  log : Event.log;
  side_effects : Side_effect.report list;
  deps : Depend.DepSet.t;
  lifetimes : Lifetime.info list;
  placements : Placement.decision list;
  gc_plan : Ctgc.entry list;
  races : Race.RaceSet.t option;
  critical : Critical.conflicts;
  static : Cobegin_static.Lint.result option;
  interference : Interfere.summary option;
  telemetry : (string * float) list;
}

val exit_code :
  ?stage_failures:stage_failure list ->
  ?static_findings:bool ->
  ?degraded:bool ->
  Budget.status ->
  int
(** Severity order: [5] degraded, else [3] crashed stages, else [2]
    truncation, else [4] static findings, else [0]; the CLI's usage
    errors exit [1] before a report exists (1 > 5 > 3 > 2 > 4 > 0). *)

val static_findings : report -> bool
(** Did the static lint suite (when it ran) find anything? *)

val report_exit_code : report -> int
(** {!exit_code} with every argument read off the report — the code the
    CLI exits with, and the one [to_json] embeds. *)

val program_digest : Ast.program -> string
(** 16-hex-digit digest of the marshaled program — the program
    component of the run-manifest key. *)

val to_json : report -> string
(** The whole report as one JSON object: identity (format version,
    program digest, engine, memory model), verdict (exit code, status,
    degraded), stats, budget headroom, stage failures with their
    flight-recorder dumps, recovery rungs, log/analysis summaries
    (side effects, dependence counts, lifetimes, placements, GC plan,
    critical names), races, static findings, interference verdicts and
    per-stage telemetry. *)
