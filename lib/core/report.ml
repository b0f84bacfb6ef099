(* The pure report core of the analyzer pipeline.

   Everything a finished analysis is: the engine that ran, the stats,
   the completion status, the supervision ladder, the section-5/7
   analysis products, the verdict-bearing options (races, lints,
   interference) and the run telemetry — as plain data, plus the
   serialization ([to_json]) and the exit-code policy computed from it.

   No printing lives here: the pretty-printers stay in [Pipeline], so
   consumers that only need the data (the CLI's --json mode, the
   planned serve daemon, the tests) depend on nothing Format-shaped.
   The JSON is emitted with the same hand-rolled helpers the telemetry
   sinks use ([Cobegin_obs.Obs_json]) — this subsystem emits JSON but
   never parses it.

   Determinism: every set-valued field is serialized in its canonical
   sorted order (RaceSet / DepSet elements, StringSet elements, sorted
   metrics snapshots), so two identical runs render byte-identical
   reports — CI diffs them directly. *)

open Cobegin_lang
open Cobegin_trans
open Cobegin_semantics
open Cobegin_absint
open Cobegin_analysis
open Cobegin_apps
module Obs_json = Cobegin_obs.Obs_json

(* Bumped whenever the report schema changes shape; consumers (the
   manifest key, the daemon's cache) key on it. *)
let format_version = 1

type engine =
  | Concrete_full (* ordinary state-space generation *)
  | Concrete_stubborn (* with persistent/stubborn-set reduction *)
  | Abstract of Analyzer.domain * Machine.folding

(* Stable machine-readable spellings (ASCII, unlike the
   pretty-printers): the engine's is also what [-e] and a request's
   "engine" key accept.  A domain's is its row's in [Analyzer]. *)
let folding_name = function
  | Machine.Exact -> "exact"
  | Machine.Control -> "control"
  | Machine.Clan -> "clan"

let engine_name = function
  | Concrete_full -> "concrete/full"
  | Concrete_stubborn -> "concrete/stubborn"
  | Abstract (d, f) ->
      "abstract/" ^ Analyzer.domain_name d ^ "/" ^ folding_name f

let engine_of_string s =
  let folding = function
    | "exact" -> Some Machine.Exact
    | "control" | "taylor" -> Some Machine.Control
    | "clan" | "mcdowell" -> Some Machine.Clan
    | _ -> None
  in
  let abstract d f =
    match (Analyzer.domain_of_string d, folding f) with
    | Some d, Some f -> Some (Abstract (d, f))
    | _ -> None
  in
  match String.split_on_char '/' (String.lowercase_ascii s) with
  | [ "full" ] | [ "concrete"; "full" ] -> Some Concrete_full
  | [ "stubborn" ] | [ "concrete"; "stubborn" ] -> Some Concrete_stubborn
  | [ "abstract" ] -> abstract "intervals" "control"
  | [ "abstract"; d ] -> abstract d "control"
  | [ "abstract"; d; f ] -> abstract d f
  | _ -> None

(* The kernel's counts.  An abstract engine's transitions are the
   shapes it fired; it reports no deadlocks. *)
type exploration_stats = Kernel.stats = {
  configurations : int;
  transitions : int;
  max_frontier : int; (* peak worklist size *)
  finals : int;
  deadlocks : int; (* 0 for abstract engines *)
  errors : int;
}

type stage_failure = {
  stage : string;
  diagnostic : string;
  backtrace : string option; (* captured trace, when one was recorded *)
  flight : string list;
      (* flight-recorder dump at the failure: the journal ring's events
         as pre-rendered JSON lines, oldest first; empty when the
         journal was disabled *)
}

(* Supervision: what the pipeline did about a failed stage attempt. *)
type recovery_action =
  | Retry
  | Degrade_jobs of { from_jobs : int; to_jobs : int }
  | Give_up

type recovery_rung = {
  r_stage : string;
  r_attempt : int; (* 1-based attempt that failed *)
  r_diagnostic : string;
  r_backtrace : string option;
  r_action : recovery_action;
}

type report = {
  program : Ast.program; (* after transforms *)
  engine_used : engine;
  memory_model : Step.model;
  stats : exploration_stats;
  status : Budget.status;
  budget : Budget.headroom list; (* consumed vs limit at the end *)
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

(* Process exit code for a finished analysis, ordered by severity:
   degraded (5) over crashed stages (3) over budget truncation (2) over
   static findings (4) over success (0).  Usage and input errors exit 1
   before any report exists, so the full precedence is
   1 > 5 > 3 > 2 > 4 > 0. *)
let exit_code ?(stage_failures = []) ?(static_findings = false)
    ?(degraded = false) status =
  if degraded then 5
  else if stage_failures <> [] then 3
  else if not (Budget.is_complete status) then 2
  else if static_findings then 4
  else 0

let static_findings r =
  match r.static with
  | Some l -> l.Cobegin_static.Lint.findings <> []
  | None -> false

let report_exit_code r =
  exit_code ~stage_failures:r.stage_failures
    ~static_findings:(static_findings r) ~degraded:r.degraded r.status

(* The program identity a report (and a run manifest) is addressed by:
   the full-width hash of the marshaled AST — the same construction the
   checkpoint format binds snapshots with. *)
let program_digest (prog : Ast.program) =
  Printf.sprintf "%016x"
    (Cobegin_hash.hash_string (Marshal.to_string prog []))

(* --- JSON emission --- *)

let add_int buf n = Buffer.add_string buf (string_of_int n)

let add_list buf add xs =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    xs;
  Buffer.add_char buf ']'

let add_opt buf add = function
  | None -> Buffer.add_string buf "null"
  | Some x -> add buf x

let add_str buf s = Obs_json.escape_into buf s

let add_reason buf = function
  | Budget.Configs n ->
      Printf.bprintf buf "{\"kind\":\"configs\",\"limit\":%d}" n
  | Budget.Transitions n ->
      Printf.bprintf buf "{\"kind\":\"transitions\",\"limit\":%d}" n
  | Budget.Deadline s ->
      Printf.bprintf buf "{\"kind\":\"deadline_s\",\"limit\":%s}"
        (Obs_json.float s)
  | Budget.Heap_words n ->
      Printf.bprintf buf "{\"kind\":\"heap_words\",\"limit\":%d}" n
  | Budget.Fuel n -> Printf.bprintf buf "{\"kind\":\"fuel\",\"limit\":%d}" n
  | Budget.Crash d ->
      Buffer.add_string buf "{\"kind\":\"crash\",\"diagnostic\":";
      add_str buf d;
      Buffer.add_char buf '}'

let add_status buf status =
  Printf.bprintf buf "{\"complete\":%b,\"label\":"
    (Budget.is_complete status);
  add_str buf (Budget.status_to_string status);
  Buffer.add_string buf ",\"reason\":";
  (match status with
  | Budget.Complete -> Buffer.add_string buf "null"
  | Budget.Truncated r -> add_reason buf r);
  Buffer.add_char buf '}'

let add_headroom buf (h : Budget.headroom) =
  Buffer.add_string buf "{\"limit\":";
  add_str buf (Budget.reason_label h.Budget.h_reason);
  Printf.bprintf buf ",\"consumed\":%s,\"max\":%s}"
    (Obs_json.float h.Budget.h_consumed)
    (Obs_json.float h.Budget.h_limit)

let add_stage_failure buf f =
  Buffer.add_string buf "{\"stage\":";
  add_str buf f.stage;
  Buffer.add_string buf ",\"diagnostic\":";
  add_str buf f.diagnostic;
  Buffer.add_string buf ",\"backtrace\":";
  add_opt buf add_str f.backtrace;
  Buffer.add_string buf ",\"flight\":";
  (* the flight lines are pre-rendered JSON objects: embed verbatim *)
  add_list buf (fun buf line -> Buffer.add_string buf line) f.flight;
  Buffer.add_char buf '}'

let add_action buf = function
  | Retry -> Buffer.add_string buf "{\"kind\":\"retry\"}"
  | Degrade_jobs { from_jobs; to_jobs } ->
      Printf.bprintf buf
        "{\"kind\":\"degrade_jobs\",\"from_jobs\":%d,\"to_jobs\":%d}"
        from_jobs to_jobs
  | Give_up -> Buffer.add_string buf "{\"kind\":\"give_up\"}"

let add_rung buf r =
  Buffer.add_string buf "{\"stage\":";
  add_str buf r.r_stage;
  Printf.bprintf buf ",\"attempt\":%d,\"diagnostic\":" r.r_attempt;
  add_str buf r.r_diagnostic;
  Buffer.add_string buf ",\"action\":";
  add_action buf r.r_action;
  Buffer.add_char buf '}'

let add_race buf (r : Race.race) =
  Printf.bprintf buf
    "{\"stmt1\":%d,\"stmt2\":%d,\"site\":%d,\"offset\":%d,\"write_write\":%b}"
    r.Race.stmt1 r.Race.stmt2 r.Race.loc.Value.l_site r.Race.loc.Value.l_off
    r.Race.write_write

let add_static_race buf (r : Cobegin_static.Lockset.race) =
  Printf.bprintf buf
    "{\"stmt1\":%d,\"stmt2\":%d,\"write_write\":%b,\"what\":"
    r.Cobegin_static.Lockset.r_stmt1 r.Cobegin_static.Lockset.r_stmt2
    r.Cobegin_static.Lockset.r_ww;
  add_str buf r.Cobegin_static.Lockset.r_what;
  Buffer.add_char buf '}'

let add_finding buf (f : Cobegin_static.Report.finding) =
  Buffer.add_string buf "{\"rule\":";
  add_str buf f.Cobegin_static.Report.f_rule;
  Buffer.add_string buf ",\"severity\":";
  add_str buf
    (Cobegin_static.Report.severity_to_string
       f.Cobegin_static.Report.f_severity);
  Buffer.add_string buf ",\"label\":";
  add_opt buf add_int f.Cobegin_static.Report.f_label;
  Buffer.add_string buf ",\"other\":";
  add_opt buf add_int f.Cobegin_static.Report.f_other;
  Buffer.add_string buf ",\"message\":";
  add_str buf f.Cobegin_static.Report.f_message;
  Buffer.add_char buf '}'

let add_static buf (l : Cobegin_static.Lint.result) =
  Buffer.add_string buf "{\"findings\":";
  add_list buf add_finding l.Cobegin_static.Lint.findings;
  Printf.bprintf buf ",\"races\":%d,\"cycles\":%d}"
    (List.length l.Cobegin_static.Lint.races)
    (List.length l.Cobegin_static.Lint.cycles)

let add_var_value buf (var, value) =
  Buffer.add_string buf "{\"var\":";
  add_str buf var;
  Buffer.add_string buf ",\"value\":";
  add_str buf value;
  Buffer.add_char buf '}'

let add_interference buf (s : Interfere.summary) =
  Buffer.add_string buf "{\"domain\":";
  add_str buf (Analyzer.domain_name s.Interfere.domain);
  Printf.bprintf buf
    ",\"locksets\":%b,\"rounds\":%d,\"widenings\":%d,\"stmt_visits\":%d,\"status\":"
    s.Interfere.locksets s.Interfere.rounds s.Interfere.widenings
    s.Interfere.stmt_visits;
  add_status buf s.Interfere.status;
  Buffer.add_string buf ",\"shared\":";
  add_list buf add_str s.Interfere.shared;
  Buffer.add_string buf ",\"protected\":";
  add_list buf
    (fun buf (var, lock) ->
      Buffer.add_string buf "{\"var\":";
      add_str buf var;
      Buffer.add_string buf ",\"lock\":";
      add_str buf lock;
      Buffer.add_char buf '}')
    s.Interfere.protected_;
  Buffer.add_string buf ",\"interference\":";
  add_list buf add_var_value s.Interfere.interference;
  Buffer.add_string buf ",\"bindings\":";
  add_list buf add_var_value s.Interfere.bindings;
  let v = s.Interfere.verdicts in
  Buffer.add_string buf ",\"verdicts\":{\"assert_may_fail\":";
  add_list buf add_int v.Interfere.assert_may_fail;
  Buffer.add_string buf ",\"never_proceeds\":";
  add_list buf add_int v.Interfere.never_proceeds;
  Buffer.add_string buf ",\"error_sites\":";
  add_list buf add_int v.Interfere.error_sites;
  Buffer.add_string buf ",\"races\":";
  add_list buf add_static_race v.Interfere.races;
  Buffer.add_string buf "}}"

let add_side_effect buf (se : Side_effect.report) =
  Buffer.add_string buf "{\"proc\":";
  add_str buf se.Side_effect.proc;
  Printf.bprintf buf ",\"reads\":%d,\"writes\":%d,\"pure\":%b}"
    (Side_effect.EffectSet.cardinal se.Side_effect.reads)
    (Side_effect.EffectSet.cardinal se.Side_effect.writes)
    (Side_effect.is_pure se)

let add_lifetime buf (i : Lifetime.info) =
  Printf.bprintf buf "{\"site\":%d,\"heap\":%b,\"shared\":%b}"
    i.Lifetime.site i.Lifetime.heap
    (match i.Lifetime.placement with
    | Lifetime.Shared -> true
    | Lifetime.Local _ -> false)

let add_placement buf (d : Placement.decision) =
  Printf.bprintf buf "{\"site\":%d,\"level\":\"%s\"}" d.Placement.site
    (match d.Placement.level with
    | Placement.Shared_memory -> "shared"
    | Placement.Local_memory -> "local")

let add_gc_entry buf (e : Ctgc.entry) =
  Printf.bprintf buf "{\"site\":%d,\"heap\":%b,\"at\":" e.Ctgc.site
    e.Ctgc.heap;
  (match e.Ctgc.at with
  | Ctgc.Proc_exit p ->
      Buffer.add_string buf "{\"kind\":\"proc_exit\",\"proc\":";
      add_str buf p;
      Buffer.add_char buf '}'
  | Ctgc.Branch_exit (cob, branch) ->
      Printf.bprintf buf
        "{\"kind\":\"branch_exit\",\"cobegin\":%d,\"branch\":%d}" cob branch
  | Ctgc.Program_exit ->
      Buffer.add_string buf "{\"kind\":\"program_exit\"}");
  Buffer.add_char buf '}'

let to_json (r : report) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"format_version\":%d,\"program_digest\":"
    format_version;
  add_str buf (program_digest r.program);
  Buffer.add_string buf ",\"engine\":";
  add_str buf (engine_name r.engine_used);
  Buffer.add_string buf ",\"memory_model\":";
  add_str buf (Step.model_name r.memory_model);
  Printf.bprintf buf ",\"exit_code\":%d,\"degraded\":%b,\"status\":"
    (report_exit_code r) r.degraded;
  add_status buf r.status;
  Printf.bprintf buf
    ",\"stats\":{\"configurations\":%d,\"transitions\":%d,\"max_frontier\":%d,\"finals\":%d,\"deadlocks\":%d,\"errors\":%d}"
    r.stats.configurations r.stats.transitions r.stats.max_frontier
    r.stats.finals r.stats.deadlocks r.stats.errors;
  Buffer.add_string buf ",\"budget\":";
  add_list buf add_headroom r.budget;
  Buffer.add_string buf ",\"stage_failures\":";
  add_list buf add_stage_failure r.stage_failures;
  Buffer.add_string buf ",\"recovery\":";
  add_list buf add_rung r.recovery;
  Printf.bprintf buf
    ",\"log\":{\"accesses\":%d,\"allocs\":%d,\"precise_pstrings\":%b}"
    (List.length r.log.Event.accesses)
    (List.length r.log.Event.allocs)
    r.log.Event.precise_pstrings;
  Buffer.add_string buf ",\"side_effects\":";
  add_list buf add_side_effect r.side_effects;
  Printf.bprintf buf ",\"deps\":{\"total\":%d,\"parallel\":%d}"
    (Depend.DepSet.cardinal r.deps)
    (Depend.DepSet.cardinal
       (Depend.DepSet.filter (fun d -> d.Depend.parallel) r.deps));
  Buffer.add_string buf ",\"lifetimes\":";
  add_list buf add_lifetime r.lifetimes;
  Buffer.add_string buf ",\"placements\":";
  add_list buf add_placement r.placements;
  Buffer.add_string buf ",\"gc_plan\":";
  add_list buf add_gc_entry r.gc_plan;
  Buffer.add_string buf ",\"critical\":{\"names\":";
  add_list buf add_str (Ast.StringSet.elements r.critical.Critical.names);
  Printf.bprintf buf ",\"memory\":%b}" r.critical.Critical.mem;
  Buffer.add_string buf ",\"races\":";
  add_opt buf
    (fun buf races -> add_list buf add_race (Race.RaceSet.elements races))
    r.races;
  Buffer.add_string buf ",\"static\":";
  add_opt buf add_static r.static;
  Buffer.add_string buf ",\"interference\":";
  add_opt buf add_interference r.interference;
  Buffer.add_string buf ",\"telemetry\":";
  add_list buf
    (fun buf (name, dur) ->
      Buffer.add_string buf "{\"stage\":";
      add_str buf name;
      Printf.bprintf buf ",\"seconds\":%s}" (Obs_json.float dur))
    r.telemetry;
  Buffer.add_char buf '}';
  Buffer.contents buf
