(* The experiment harness: regenerates every quantitative claim of the
   paper (see DESIGN.md section 3 and EXPERIMENTS.md), then times the
   engines with Bechamel.

     dune exec bench/main.exe            run everything
     dune exec bench/main.exe -- E4      run one experiment section *)

open Cobegin_core
open Cobegin_lang
open Cobegin_semantics
open Cobegin_explore
open Cobegin_absint
open Cobegin_analysis
open Cobegin_apps
open Cobegin_models
open Cobegin_petri

let section id title =
  Format.printf "@.=== %s: %s ===@." id title

let row fmt = Format.printf fmt

let parse src =
  let prog = Parser.parse_string src in
  Check.check_exn prog;
  prog

(* --- E1: Figure 2 / Example 1 — sequential-consistency outcomes --- *)

let e1 () =
  section "E1" "Figure 2 outcomes: (x,y) never (0,0) under SC";
  let prog = parse Figures.fig2 in
  let ctx = Step.make_ctx prog in
  let full = Space.full ctx in
  let outcomes =
    List.filter_map
      (fun (c : Config.t) ->
        let ints =
          Store.bindings c.Config.store
          |> List.filter_map (fun (_, v) ->
                 match v with Value.Vint n -> Some n | _ -> None)
        in
        match ints with
        | [ _a; _b; x; y ] -> Some (x, y)
        | _ -> None)
      full.Space.final_configs
    |> List.sort_uniq compare
  in
  row "paper: legal (x,y) = 3 of 4 combinations; one impossible@.";
  row "measured outcomes: %s@."
    (String.concat ", "
       (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) outcomes));
  row "impossible (0,0) absent: %b | outcomes: %d | configurations: %d@."
    (not (List.mem (0, 0) outcomes))
    (List.length outcomes)
    full.Space.stats.Space.configurations

(* --- E2: Figure 3 — configuration folding merges dangling links --- *)

let e2 () =
  section "E2" "Figure 3 folding: dangling result-configurations merge";
  let prog = parse Figures.fig3 in
  let concrete = Space.full (Step.make_ctx prog) in
  let abstract = Analyzer.analyze ~folding:Machine.Control prog in
  row "paper: the dangling links merge, 'resulting in only one configuration'@.";
  row "concrete result-configurations: %d@." concrete.Space.stats.Space.finals;
  row "abstract result-configurations: %d (configs %d vs concrete %d)@."
    abstract.Analyzer.finals abstract.Analyzer.abstract_configs
    concrete.Space.stats.Space.configurations

(* --- E3: Figure 5 — stubborn sets exploit locality --- *)

let e3 () =
  section "E3" "Figure 5 locality: full vs stubborn configuration counts";
  let prog = parse Figures.fig5 in
  let ctx = Step.make_ctx prog in
  let full = Space.full ctx in
  let stats = Stubborn.new_stats () in
  let stub = Stubborn.explore ~stats ctx in
  row "paper: full space vs 13 configurations, same result-configurations@.";
  row "%-22s %12s %12s %8s@." "strategy" "configs" "transitions" "finals";
  row "%-22s %12d %12d %8d@." "full interleaving"
    full.Space.stats.Space.configurations full.Space.stats.Space.transitions
    full.Space.stats.Space.finals;
  row "%-22s %12d %12d %8d@." "stubborn sets"
    stub.Space.stats.Space.configurations stub.Space.stats.Space.transitions
    stub.Space.stats.Space.finals;
  let slp = Sleep.explore (Step.make_ctx prog) in
  row "%-22s %12d %12d %8d@." "stubborn + sleep"
    slp.Space.stats.Space.configurations slp.Space.stats.Space.transitions
    slp.Space.stats.Space.finals;
  row "result-configurations agree: %b@."
    (Space.final_store_reprs full = Space.final_store_reprs stub
    && Space.final_store_reprs full = Space.final_store_reprs slp);
  row "stubborn expansions: singleton=%d component=%d full=%d@."
    stats.Stubborn.singleton_expansions stats.Stubborn.component_expansions
    stats.Stubborn.full_expansions

(* --- E4: dining philosophers — exponential vs polynomial ([Val88]) --- *)

let e4 () =
  section "E4" "Dining philosophers: net reachability, full vs stubborn";
  row "paper (citing Val88): exponential in n reduced to ~quadratic@.";
  row "%4s %12s %12s %10s %10s@." "n" "full" "stubborn" "ratio" "deadlocks";
  List.iter
    (fun n ->
      let net = Philosophers.net n in
      let full = Reach.full net in
      let stub = Reach.stubborn net in
      row "%4d %12d %12d %10.2f %10s@." n full.Reach.stats.Reach.states
        stub.Reach.stats.Reach.states
        (float_of_int full.Reach.stats.Reach.states
        /. float_of_int stub.Reach.stats.Reach.states)
        (Printf.sprintf "%d=%d" full.Reach.stats.Reach.deadlocks
           stub.Reach.stats.Reach.deadlocks))
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
  (* growth-rate summary: successive ratios *)
  let states strategy n =
    let net = Philosophers.net n in
    match strategy with
    | `Full -> (Reach.full net).Reach.stats.Reach.states
    | `Stub -> (Reach.stubborn net).Reach.stats.Reach.states
  in
  let growth strategy =
    float_of_int (states strategy 9) /. float_of_int (states strategy 8)
  in
  row "growth factor n=8→9: full ×%.2f, stubborn ×%.2f@." (growth `Full)
    (growth `Stub);
  (* the asymmetric (deadlock-free) variant: both engines must agree on
     the absence of deadlocks *)
  let net = Philosophers.net_ordered 6 in
  let f = Reach.full net and s = Reach.stubborn net in
  row
    "ordered variant (n=6): full=%d stubborn=%d deadlocks=%d=%d (must be 0)@."
    f.Reach.stats.Reach.states s.Reach.stats.Reach.states
    f.Reach.stats.Reach.deadlocks s.Reach.stats.Reach.deadlocks

(* --- E5: Example 8 — pointers and malloc inside cobegin --- *)

let e5 () =
  section "E5" "Example 8: dependences and placement through the heap";
  let prog = parse Figures.example8 in
  let report = Pipeline.analyze prog in
  let heap =
    List.filter (fun i -> i.Lifetime.heap) report.Pipeline.lifetimes
  in
  let shared, local =
    List.partition (fun i -> i.Lifetime.placement = Lifetime.Shared) heap
  in
  row "paper: b1 (the cell *y) must be visible to both threads; b2 local@.";
  row "heap objects: %d | shared: %d | local: %d@." (List.length heap)
    (List.length shared) (List.length local);
  let deps = Depend.parallel_deps report.Pipeline.log in
  row "parallel dependences through heap cells: %d@."
    (Depend.DepSet.cardinal
       (Depend.DepSet.filter
          (fun d ->
            match d.Depend.obj with
            | Event.Concrete l ->
                Value.(l.l_site) > 0
                &&
                (match report.Pipeline.program with _ -> true)
            | Event.Abstract a -> Aloc.is_heap a)
          deps))

(* --- E6: Figure 8 / Example 15 — parallelizing procedure calls --- *)

let e6 () =
  section "E6" "Figure 8: Shasha-Snir extended to procedure calls";
  let prog = parse Figures.fig8 in
  let report = Pipeline.analyze prog in
  let par = Pipeline.parallelization report in
  row "paper: only (s1,s4) and (s2,s3) have dependences@.";
  row "%a@." Parallelize.pp_report par;
  (* the transformation applied: on fig8 the delays block any split; on
     a fully independent variant every call becomes its own branch *)
  let branches p =
    Ast.fold_program
      (fun acc s ->
        match s.Ast.kind with
        | Ast.Scobegin bs -> max acc (List.length bs)
        | _ -> acc)
      0 p
  in
  let prog' = Parallelize.apply prog par in
  row "apply on fig8: %d branches (delays forbid splitting)@."
    (branches prog');
  let free =
    parse
      "proc f(p) { *p = 1; } proc g(p) { *p = 2; } proc main() { var a = \
       malloc(1); var b = malloc(1); var c = malloc(1); var d = malloc(1); \
       cobegin { f(a); g(b); } { f(c); g(d); } coend; }"
  in
  let report' = Pipeline.analyze free in
  let par' = Pipeline.parallelization report' in
  let free' = Parallelize.apply free par' in
  row "apply on independent calls: %d → %d branches@." (branches free)
    (branches free')

(* --- E7: virtual coarsening ablation --- *)

let e7 () =
  section "E7" "Virtual coarsening (Observation 5): ablation";
  row "%-12s %9s %9s %9s %9s %9s@." "program" "plain" "coarsened" "stubborn"
    "sleep" "all";
  List.iter
    (fun (name, src) ->
      let prog = parse src in
      let coarse = Cobegin_trans.Coarsen.program prog in
      let count strategy p =
        let ctx = Step.make_ctx p in
        match strategy with
        | `Full -> (Space.full ctx).Space.stats.Space.configurations
        | `Stub -> (Stubborn.explore ctx).Space.stats.Space.configurations
        | `Sleep -> (Sleep.explore ctx).Space.stats.Space.configurations
      in
      row "%-12s %9d %9d %9d %9d %9d@." name (count `Full prog)
        (count `Full coarse) (count `Stub prog) (count `Sleep prog)
        (count `Sleep coarse))
    [
      ("fig2", Figures.fig2);
      ("fig5", Figures.fig5);
      ("fig3", Figures.fig3);
      ("busywait", Figures.busywait);
      ("mutex", Figures.mutex);
    ]

(* --- E8: McDowell clans as an abstraction --- *)

let e8 () =
  section "E8" "Clan folding (McDowell) on k identical branches";
  row "%4s %12s %12s %12s %10s@." "k" "exact" "control" "clan" "ctl/clan";
  List.iter
    (fun k ->
      let prog = parse (Figures.clan_workload k) in
      let size folding =
        (Analyzer.analyze ~folding prog).Analyzer.abstract_configs
      in
      let e = size Machine.Exact
      and c = size Machine.Control
      and l = size Machine.Clan in
      row "%4d %12d %12d %12d %10.2f@." k e c l
        (float_of_int c /. float_of_int l))
    [ 1; 2; 3; 4; 5 ]

(* --- E9: the section-5 analyses across engines --- *)

let e9 () =
  section "E9" "Analyses summary: side effects / dependences / lifetimes";
  row "%-12s %8s %8s %8s %8s %8s@." "program" "engine" "sideeff" "pardeps"
    "objects" "shared";
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (ename, engine) ->
          let report =
            Pipeline.analyze
              ~options:{ Pipeline.default_options with engine }
              (parse src)
          in
          let sideeff =
            List.fold_left
              (fun n r ->
                n
                + Side_effect.EffectSet.cardinal r.Side_effect.reads
                + Side_effect.EffectSet.cardinal r.Side_effect.writes)
              0 report.Pipeline.side_effects
          in
          let pardeps =
            Depend.DepSet.cardinal (Depend.parallel_deps report.Pipeline.log)
          in
          let shared =
            List.length
              (List.filter
                 (fun i -> i.Lifetime.placement = Lifetime.Shared)
                 report.Pipeline.lifetimes)
          in
          row "%-12s %8s %8d %8d %8d %8d@." name ename sideeff pardeps
            (List.length report.Pipeline.lifetimes)
            shared)
        [
          ("conc", Pipeline.Concrete_full);
          ( "abs",
            Pipeline.Abstract (Analyzer.Intervals, Machine.Control) );
        ])
    [
      ("fig2", Figures.fig2);
      ("example8", Figures.example8);
      ("fig8", Figures.fig8);
      ("busywait", Figures.busywait);
    ]

(* --- E10: memory placement + compile-time GC --- *)

let e10 () =
  section "E10" "Memory hierarchy placement and deallocation lists";
  let prog = parse Figures.example8 in
  let report = Pipeline.analyze prog in
  row "placement:@.%a@." Placement.pp report.Pipeline.placements;
  row "deallocation plan:@.%a@." Ctgc.pp report.Pipeline.gc_plan;
  let reclaimed = Ctgc.statically_reclaimed report.Pipeline.gc_plan in
  row "heap objects statically reclaimed: %d@." (List.length reclaimed)

(* --- E11: the introduction's claim — protocols a compiler must not
   break.  Peterson's algorithm is correct under SC; the write reordering
   a sequential optimizer might apply breaks it, and exploration
   exhibits a concrete violating schedule. --- *)

let e11 () =
  section "E11" "Sequential-consistency-dependent protocols (paper intro)";
  row "%-18s %10s %8s %8s %10s@." "protocol" "configs" "finals" "errors"
    "deadlocks";
  List.iter
    (fun (name, src) ->
      let ctx = Step.make_ctx (parse src) in
      let r = Space.full ctx in
      row "%-18s %10d %8d %8d %10d@." name r.Space.stats.Space.configurations
        r.Space.stats.Space.finals r.Space.stats.Space.errors
        r.Space.stats.Space.deadlocks)
    Protocols.all_named;
  (* shortest violating schedules: peterson_broken under SC, and
     peterson itself under TSO, where a flush is a step like any other *)
  List.iter
    (fun (name, src, model) ->
      let ctx = Step.make_ctx ~model (parse src) in
      match Cobegin_explore.Trace.error_witness ctx with
      | Some w ->
          row "violating schedule for %s under %s (%d steps): %s@." name
            (Step.model_name model)
            (List.length w.Cobegin_explore.Trace.schedule)
            (String.concat "→"
               (List.map
                  (Format.asprintf "%a" Replay.pp_step)
                  w.Cobegin_explore.Trace.schedule))
      | None -> row "no violation found for %s (unexpected)@." name)
    [
      ("peterson_broken", Protocols.peterson_broken, Step.Sc);
      ("peterson", Protocols.peterson, Step.Tso);
    ];
  (* and the program-level philosophers, with locks *)
  row "@.philosophers as a lock program (full vs stubborn vs sleep):@.";
  row "%4s %10s %10s %10s %10s@." "n" "full" "stubborn" "sleep" "deadlocks";
  List.iter
    (fun n ->
      let ctx () = Step.make_ctx (parse (Philosophers.program n)) in
      let full = Space.full (ctx ()) in
      let stub = Stubborn.explore (ctx ()) in
      let slp = Sleep.explore (ctx ()) in
      row "%4d %10d %10d %10d %10d@." n
        full.Space.stats.Space.configurations
        stub.Space.stats.Space.configurations
        slp.Space.stats.Space.configurations
        full.Space.stats.Space.deadlocks)
    [ 2; 3 ]

(* --- E12: budgeted exploration — graceful degradation, JSON rows ---

   Machine-readable output: one JSON object per (workload, budget) with
   the partial statistics and the completion status string from
   [Budget.status_to_string], so downstream scripts can tell a complete
   measurement from a truncated one. *)

let e12 () =
  section "E12" "Budgeted exploration: partial results as JSON";
  let json_row ~workload ~budget (r : Space.result) =
    row
      "{\"workload\": \"%s\", \"max_configs\": %s, \"configurations\": %d, \
       \"transitions\": %d, \"finals\": %d, \"status\": \"%s\"}@."
      workload budget r.Space.stats.Space.configurations
      r.Space.stats.Space.transitions r.Space.stats.Space.finals
      (Budget.status_to_string r.Space.status)
  in
  List.iter
    (fun (name, src) ->
      let ctx () = Step.make_ctx (parse src) in
      json_row ~workload:name ~budget:"null" (Space.full (ctx ()));
      List.iter
        (fun k ->
          json_row ~workload:name ~budget:(string_of_int k)
            (Space.full ~max_configs:k (ctx ())))
        [ 10; 100; 1000 ])
    [ ("fig5", Figures.fig5); ("peterson", Protocols.peterson) ];
  (* the net substrate degrades the same way *)
  let net = Philosophers.net 8 in
  let r = Reach.full ~max_states:5_000 net in
  row
    "{\"workload\": \"philosophers-8\", \"max_states\": 5000, \"states\": \
     %d, \"edges\": %d, \"status\": \"%s\"}@."
    r.Reach.stats.Reach.states r.Reach.stats.Reach.edges
    (Budget.status_to_string r.Reach.status)

(* --- E13: static concurrency lint vs. the exploration race scan ---

   The lint (lib/static) answers "which statement pairs may race" from
   the program text alone; the explorer answers it by enumerating
   interleavings.  On the dining-philosophers family the lint must be
   cheaper, and more so as the state space grows — that is its reason to
   exist as a budget-free pre-stage.  The lint is timed with building
   its static base. *)

let e13 () =
  section "E13" "Static lint cost vs. exploration race scan (philosophers)";
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  row "%-16s %14s %14s %10s@." "workload" "lint (s)" "explore (s)" "ratio";
  List.iter
    (fun n ->
      let prog = parse (Philosophers.program n) in
      (* amortize the lint over repeats: it is too fast to time once *)
      let reps = 20 in
      let (), tl =
        time (fun () ->
            for _ = 1 to reps do
              ignore
                (Cobegin_static.Lint.run
                   (Cobegin_static.Lockset.of_program prog))
            done)
      in
      let tl = tl /. float_of_int reps in
      let r, te =
        time (fun () -> Race.find ~max_configs:200_000 (Step.make_ctx prog))
      in
      let ratio = if tl > 0. then te /. tl else Float.infinity in
      row "philosophers-%-3d %14.6f %14.6f %9.0fx   (dynamic races: %d, %s)@."
        n tl te ratio
        (Race.RaceSet.cardinal r.Race.races)
        (Budget.status_to_string r.Race.status))
    [ 2; 3 ]

(* --- E14: hash-consed digests vs. the legacy repr-keyed visited set ---

   The pre-interning engine keyed visited sets by [Config.repr] under the
   generic polymorphic hash, which inspects only the first ~10 nodes of
   the representation — every large state space degenerated into
   collision chains probed by deep structural equality.  [legacy_full]
   reproduces that engine verbatim (same budget protocol, same expansion
   order) so the comparison isolates the keying strategy.  Digest
   equality is equivalent to repr equality (interned ids are never
   reused), so every count must be identical. *)

type e14_counts = {
  l_configs : int;
  l_transitions : int;
  l_finals : int;
  l_deadlocks : int;
  l_errors : int;
}

let legacy_full ?(max_configs = 1_000_000) ctx : e14_counts =
  let budget = Budget.create ~max_configs () in
  let visited : (Config.repr, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let finals = ref 0 and deadlocks = ref 0 and errors = ref 0 in
  let transitions = ref 0 in
  let stop = ref None in
  let c0 = Step.init ctx in
  Hashtbl.replace visited (Config.repr c0) ();
  Queue.add c0 queue;
  while !stop = None && not (Queue.is_empty queue) do
    match
      Budget.check budget ~configs:(Hashtbl.length visited)
        ~transitions:!transitions
    with
    | Some r -> stop := Some r
    | None -> (
        let c = Queue.pop queue in
        if Config.is_error c then incr errors
        else if Config.all_terminated c then incr finals
        else
          match Step.enabled_processes ctx c with
          | [] -> incr deadlocks
          | enabled ->
              let rec fire_each = function
                | [] -> ()
                | p :: rest ->
                    incr transitions;
                    let c', _ = Step.fire ctx c p in
                    let k = Config.repr c' in
                    (if not (Hashtbl.mem visited k) then
                       match
                         Budget.config_guard budget
                           ~configs:(Hashtbl.length visited)
                       with
                       | Some r -> stop := Some r
                       | None ->
                           Hashtbl.replace visited k ();
                           Queue.add c' queue);
                    if !stop = None then fire_each rest
              in
              fire_each enabled)
  done;
  {
    l_configs = Hashtbl.length visited;
    l_transitions = !transitions;
    l_finals = !finals;
    l_deadlocks = !deadlocks;
    l_errors = !errors;
  }

let digest_counts (r : Space.result) =
  {
    l_configs = r.Space.stats.Space.configurations;
    l_transitions = r.Space.stats.Space.transitions;
    l_finals = r.Space.stats.Space.finals;
    l_deadlocks = r.Space.stats.Space.deadlocks;
    l_errors = r.Space.stats.Space.errors;
  }

(* [agree] over the whole corpus; returns the mismatching names. *)
let e14_corpus_check ~max_configs =
  List.filter_map
    (fun (name, src) ->
      let ctx () = Step.make_ctx (parse src) in
      let legacy = legacy_full ~max_configs (ctx ()) in
      let digest = digest_counts (Space.full ~max_configs (ctx ())) in
      if legacy = digest then None else Some name)
    Corpus.all

let e14 () =
  section "E14" "Hash-consed digests vs. legacy repr-keyed visited sets";
  row "counts (configs/transitions/finals/deadlocks) must be identical;@.";
  row "wall time must drop: the digest probe is a few int compares@.";
  let mismatches = e14_corpus_check ~max_configs:20_000 in
  row "corpus count agreement: %d/%d models%s@."
    (List.length Corpus.all - List.length mismatches)
    (List.length Corpus.all)
    (match mismatches with
    | [] -> ""
    | l -> " — MISMATCH: " ^ String.concat ", " l);
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  row "%-20s %10s %12s %12s %10s %14s@." "workload" "configs" "legacy (s)"
    "digest (s)" "speedup" "peak heap (MW)";
  List.iter
    (fun (label, rounds, n) ->
      let src = Philosophers.program ~rounds n in
      let ctx () = Step.make_ctx (parse src) in
      (* run the digest engine first: top_heap_words is monotone, so the
         smaller footprint must be measured before the larger one *)
      Gc.compact ();
      let digest, td = time (fun () -> Space.full (ctx ())) in
      let digest_peak = (Gc.quick_stat ()).Gc.top_heap_words in
      Gc.compact ();
      let legacy, tl = time (fun () -> legacy_full (ctx ())) in
      let legacy_peak = (Gc.quick_stat ()).Gc.top_heap_words in
      let d = digest_counts digest in
      row "%-20s %10d %12.3f %12.3f %9.2fx %6.1f → %.1f%s@." label
        d.l_configs tl td
        (if td > 0. then tl /. td else Float.infinity)
        (float_of_int digest_peak /. 1e6)
        (float_of_int legacy_peak /. 1e6)
        (if legacy = d then "" else "  COUNT MISMATCH"))
    [
      ("phil-2 (3 rounds)", 3, 2);
      ("phil-3", 1, 3);
      ("phil-3 (2 rounds)", 2, 3);
    ]

(* CI smoke variant: small models only, nonzero exit on any divergence
   between the legacy and digest-keyed engines. *)
let e14smoke () =
  section "E14smoke" "legacy vs digest count agreement (CI gate)";
  let mismatches = e14_corpus_check ~max_configs:2_000 in
  (match mismatches with
  | [] -> row "all %d corpus models agree@." (List.length Corpus.all)
  | l ->
      row "DIVERGENCE on: %s@." (String.concat ", " l);
      exit 1);
  let src = Philosophers.program ~rounds:1 2 in
  let legacy = legacy_full (Step.make_ctx (parse src)) in
  let digest = digest_counts (Space.full (Step.make_ctx (parse src))) in
  if legacy <> digest then begin
    row "DIVERGENCE on philosophers-2@.";
    exit 1
  end;
  row "philosophers-2: %d configurations, engines agree@." digest.l_configs

(* --- E15: telemetry overhead and per-stage wall time ---

   Two claims, as JSON rows: (a) with telemetry disabled (the default)
   the metric guards cost nothing measurable — philosophers throughput
   with and without counters enabled; (b) the pipeline's span recorder
   decomposes a run into per-stage wall seconds.  Uses wall clock
   (Unix.gettimeofday), not Sys.time: spans measure wall time too. *)

let e15 () =
  section "E15" "Telemetry: disabled-mode overhead and per-stage spans";
  let module Metrics = Cobegin_obs.Metrics in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let src = Philosophers.program ~rounds:2 3 in
  let run () = Space.full (Step.make_ctx (parse src)) in
  let was_enabled = Metrics.enabled () in
  List.iter
    (fun enabled ->
      Metrics.set_enabled enabled;
      ignore (run ());
      (* warm-up *)
      let r, t = wall run in
      row
        "{\"workload\": \"philosophers-3 (2 rounds)\", \"telemetry\": \
         \"%s\", \"configurations\": %d, \"transitions\": %d, \"wall_s\": \
         %.4f}@."
        (if enabled then "enabled" else "disabled")
        r.Space.stats.Space.configurations r.Space.stats.Space.transitions t)
    [ false; true ];
  Metrics.set_enabled was_enabled;
  List.iter
    (fun (name, src) ->
      let spans = Cobegin_obs.Span.create () in
      let options =
        { Pipeline.default_options with find_races = true; lint = true }
      in
      let report = Pipeline.analyze ~options ~spans (parse src) in
      row "{\"workload\": \"%s\", \"stage_wall_s\": {%s}}@." name
        (String.concat ", "
           (List.map
              (fun (stage, dur) ->
                Printf.sprintf "\"%s\": %.6f" stage dur)
              report.Pipeline.telemetry)))
    [
      ("fig2", Figures.fig2);
      ("fig8", Figures.fig8);
      ("example8", Figures.example8);
    ]

(* --- E16: multi-domain exploration — speedup and count agreement ---

   The parallel engine must be a drop-in for Space.full: on a complete
   run the configuration/transition counts, the terminal counts and the
   final-store multiset are schedule-independent and identical to the
   sequential engine's (max_frontier is the one schedule-dependent
   stat, so it is excluded from the agreement predicate).  Speedups are
   reported, not asserted: they depend on the host's core count
   (Domain.recommended_domain_count), and a single-core CI runner
   legitimately shows <= 1x. *)

let e16_agree (seq : Space.result) (par : Space.result) =
  let s = seq.Space.stats and p = par.Space.stats in
  s.Space.configurations = p.Space.configurations
  && s.Space.transitions = p.Space.transitions
  && s.Space.finals = p.Space.finals
  && s.Space.deadlocks = p.Space.deadlocks
  && s.Space.errors = p.Space.errors
  && Space.final_store_reprs seq = Space.final_store_reprs par

(* Sequential-vs-parallel agreement over the whole corpus; returns the
   mismatching names. *)
let e16_corpus_check ~jobs =
  List.filter_map
    (fun (name, src) ->
      let ctx = Step.make_ctx (parse src) in
      let seq = Space.full ctx in
      let par = Parallel.full ~jobs ctx in
      if e16_agree seq par then None else Some name)
    Corpus.all

let e16 () =
  section "E16" "Multi-domain exploration: speedup and count agreement";
  row "host: %d recommended domains@." (Domain.recommended_domain_count ());
  List.iter
    (fun jobs ->
      let mismatches = e16_corpus_check ~jobs in
      row "corpus agreement (jobs=%d): %d/%d models%s@." jobs
        (List.length Corpus.all - List.length mismatches)
        (List.length Corpus.all)
        (match mismatches with
        | [] -> ""
        | l -> " — MISMATCH: " ^ String.concat ", " l))
    [ 2; 4 ];
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  row "%-20s %10s %6s %10s %9s %16s@." "workload" "configs" "jobs"
    "wall (s)" "speedup" "peak heap (MW)";
  List.iter
    (fun (label, rounds, n) ->
      let src = Philosophers.program ~rounds n in
      let ctx () = Step.make_ctx (parse src) in
      Gc.compact ();
      let seq, t1 = wall (fun () -> Space.full (ctx ())) in
      (* top_heap_words is monotone across the process, so each row's
         peak is really "peak so far" — comparable within a workload
         only as an upper bound *)
      let peak () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6 in
      row "%-20s %10d %6d %10.3f %8s %16.1f@." label
        seq.Space.stats.Space.configurations 1 t1 "1.00x" (peak ());
      List.iter
        (fun jobs ->
          Gc.compact ();
          let par, tp = wall (fun () -> Parallel.full ~jobs (ctx ())) in
          row "%-20s %10d %6d %10.3f %7.2fx %16.1f%s@." label
            par.Space.stats.Space.configurations jobs tp
            (if tp > 0. then t1 /. tp else Float.infinity)
            (peak ())
            (if e16_agree seq par then "" else "  COUNT MISMATCH"))
        [ 2; 4; 8 ])
    [
      ("phil-2 (3 rounds)", 3, 2);
      ("phil-3", 1, 3);
      ("phil-3 (2 rounds)", 2, 3);
    ]

(* CI smoke variant: the agreement gate only — nonzero exit when any
   corpus model diverges between the sequential and parallel engines.
   Deliberately no speedup assertion: a single-core runner can't show
   one. *)
let e16smoke () =
  section "E16smoke" "sequential vs parallel count agreement (CI gate)";
  List.iter
    (fun jobs ->
      match e16_corpus_check ~jobs with
      | [] ->
          row "jobs=%d: all %d corpus models agree@." jobs
            (List.length Corpus.all)
      | l ->
          row "jobs=%d: DIVERGENCE on: %s@." jobs (String.concat ", " l);
          exit 1)
    [ 2; 4 ]

(* --- E17: checkpoint overhead and recovery cost ---

   Two costs of the robustness layer, as JSON rows: (a) what cadenced
   checkpointing adds to a clean exploration (cadence sweep: off, every
   1s, every 100ms — the pop-count trigger is effectively disabled so
   the wall clock drives the saves), and (b) what one injected worker
   kill costs the supervised pipeline against an undisturbed run at the
   same jobs count — the price of walking the jobs N -> 1 rung and
   re-exploring sequentially. *)

let e17 () =
  section "E17" "Chaos & checkpoint: overhead and recovery cost";
  Cobegin_obs.Metrics.set_enabled true;
  let m_saves = Cobegin_obs.Metrics.counter "checkpoint.saves" in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let workloads =
    [ ("phil-3", 1, 3); ("phil-3 (2 rounds)", 2, 3) ]
  in
  List.iter
    (fun (label, rounds, n) ->
      let src = Philosophers.program ~rounds n in
      let ctx () = Step.make_ctx (parse src) in
      Gc.compact ();
      let base, t_base = wall (fun () -> Space.full (ctx ())) in
      let json ~cadence ~saves ~wall_s (r : Space.result) =
        row
          "{\"experiment\": \"E17\", \"mode\": \"checkpoint\", \
           \"workload\": \"%s\", \"cadence\": %s, \"configurations\": \
           %d, \"saves\": %d, \"wall_s\": %.4f, \"overhead\": %s, \
           \"status\": \"%s\"}@."
          label cadence r.Space.stats.Space.configurations saves wall_s
          (if t_base > 0. then Printf.sprintf "%.2f" (wall_s /. t_base)
           else "null")
          (Budget.status_to_string r.Space.status)
      in
      json ~cadence:"null" ~saves:0 ~wall_s:t_base base;
      List.iter
        (fun (cadence_label, cadence) ->
          let path = Filename.temp_file "cobegin-e17" ".ckpt" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let saves0 = Cobegin_obs.Metrics.counter_value m_saves in
              Gc.compact ();
              let r, t =
                wall (fun () -> Checkpoint.full ~cadence ~path (ctx ()))
              in
              json ~cadence:cadence_label
                ~saves:(Cobegin_obs.Metrics.counter_value m_saves - saves0)
                ~wall_s:t r))
        [
          ( "\"1s\"",
            { Checkpoint.every_configs = max_int; every_s = Some 1.0 } );
          ( "\"100ms\"",
            { Checkpoint.every_configs = max_int; every_s = Some 0.1 } );
          ( "\"256 pops\"",
            { Checkpoint.every_configs = 256; every_s = None } );
        ])
    workloads;
  (* recovery cost: one worker killed early at jobs=4, the supervisor
     degrades to the sequential engine and completes *)
  let src = Philosophers.program ~rounds:2 3 in
  let options = { Pipeline.default_options with jobs = 4 } in
  let json_rec ~fault ~wall_s (r : Pipeline.report) =
    row
      "{\"experiment\": \"E17\", \"mode\": \"recovery\", \"workload\": \
       \"phil-3 (2 rounds)\", \"jobs\": 4, \"fault\": %s, \
       \"configurations\": %d, \"rungs\": %d, \"recovered\": %b, \
       \"degraded\": %b, \"wall_s\": %.4f}@."
      fault r.Pipeline.stats.Pipeline.configurations
      (List.length r.Pipeline.recovery)
      (Budget.is_complete r.Pipeline.status)
      r.Pipeline.degraded wall_s
  in
  Gc.compact ();
  let clean, t_clean = wall (fun () -> Pipeline.analyze_source ~options src) in
  json_rec ~fault:"null" ~wall_s:t_clean clean;
  let spec = "kill@worker1:50" in
  (match Fault.parse spec with
  | Error e -> row "bad spec: %s@." e
  | Ok plan ->
      Fault.install plan;
      Fun.protect ~finally:Fault.clear (fun () ->
          Gc.compact ();
          let r, t = wall (fun () -> Pipeline.analyze_source ~options src) in
          json_rec ~fault:(Printf.sprintf "%S" spec) ~wall_s:t r))

(* --- E18: thread-modular interference — escaping the explosion ---

   The rely-guarantee engine analyzes each philosopher once per fixpoint
   round, so its cost is linear in N × rounds while every explicit
   engine — even stubborn+sleep — pays a state space that grows
   exponentially with N.  The crossover table runs both to N = 10 and
   the interference engine alone to N = 30; the headline claim (asserted
   by E18smoke in CI) is that philosophers-30 under interference costs
   less wall time than philosophers-[e18_explicit_n] under the best
   explicit engine.  At that n the explicit engine takes about 0.55 s
   on a 2-core x86-64 host against 0.003 s for the interference run, so
   the gate keeps a wide margin against a noisy runner; philosophers-6,
   at about 0.01 s, would be too close to separate the two. *)

let e18_explicit_n = 10

let e18_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let e18_interfere n =
  let prog = parse (Philosophers.program n) in
  e18_wall (fun () ->
      Interfere.run (Cobegin_static.Lockset.of_program prog))

let e18_sleep n =
  let prog = parse (Philosophers.program n) in
  e18_wall (fun () ->
      Sleep.explore
        ~budget:(Budget.create ~max_configs:500_000 ())
        (Step.make_ctx prog))

let e18 () =
  section "E18" "Interference analysis vs explicit engines (philosophers)";
  row "%-16s %14s %8s %14s %12s@." "workload" "interfere (s)" "rounds"
    "sleep (s)" "configs";
  List.iter
    (fun n ->
      let s, ti = e18_interfere n in
      if n <= e18_explicit_n then begin
        let r, te = e18_sleep n in
        row "philosophers-%-3d %14.6f %8d %14.6f %12d  (%s)@." n ti
          s.Interfere.rounds te
          r.Space.stats.Space.configurations
          (Budget.status_to_string r.Space.status)
      end
      else
        row "philosophers-%-3d %14.6f %8d %14s %12s@." n ti
          s.Interfere.rounds "-" "-")
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 20; 30 ];
  let s30, t30 = e18_interfere 30 in
  let _, tn = e18_sleep e18_explicit_n in
  row
    "crossover: interfere(phil-30) %.4fs vs sleep(phil-%d) %.4fs — %.0fx \
     under, status %s@."
    t30 e18_explicit_n tn
    (if t30 > 0. then tn /. t30 else Float.infinity)
    (Budget.status_to_string s30.Interfere.status)

(* CI smoke variant: the acceptance gate — philosophers-30 under the
   interference engine must complete, report no verdicts (the protocol
   is clean), and cost less wall time than philosophers-[e18_explicit_n]
   under stubborn+sleep.  Nonzero exit otherwise. *)
let e18smoke () =
  section "E18smoke" "interference crossover gate (CI gate)";
  let s30, t30 = e18_interfere 30 in
  let rn, tn = e18_sleep e18_explicit_n in
  let v = s30.Interfere.verdicts in
  let clean =
    Budget.is_complete s30.Interfere.status
    && v.Interfere.assert_may_fail = []
    && v.Interfere.never_proceeds = []
    && v.Interfere.error_sites = []
    && v.Interfere.races = []
  in
  row
    "interfere(phil-30): %.4fs, %d rounds, %s | sleep(phil-%d): %.4fs (%s)@."
    t30 s30.Interfere.rounds
    (Budget.status_to_string s30.Interfere.status)
    e18_explicit_n tn
    (Budget.status_to_string rn.Space.status);
  if not clean then begin
    row "GATE FAILED: philosophers-30 not clean/complete@.";
    exit 1
  end;
  if t30 >= tn then begin
    row "GATE FAILED: interfere(phil-30) not under sleep(phil-%d)@."
      e18_explicit_n;
    exit 1
  end;
  row "gate passed: %.0fx under@." (tn /. t30)

(* --- E19: relaxed memory — the protocol matrix and the buffer blowup

   The store-buffer models (docs/INTERNALS.md §11) make the classic
   mutual-exclusion protocols fail exactly the way weak hardware breaks
   them: Peterson and Dekker rely on store-to-load order (TSO and PSO
   both relax it), and PSO additionally reorders the flag/turn stores.
   The fenced variants verify clean under all three models.  The table
   also shows the price: every reachable buffer occupancy multiplies
   the state space. *)

let e19_models = [ "peterson"; "peterson_fenced"; "dekker"; "dekker_fenced" ]

let e19_run name model =
  let src =
    match Corpus.find name with
    | Some src -> src
    | None -> failwith ("no corpus model " ^ name)
  in
  Space.full (Step.make_ctx ~model (parse src))

let e19 () =
  section "E19" "TSO/PSO store buffers: protocol matrix and blowup";
  row "%-18s %-5s %14s %12s %8s@." "model" "mm" "configurations"
    "transitions" "errors";
  List.iter
    (fun name ->
      List.iter
        (fun (mm, model) ->
          let r = e19_run name model in
          row "%-18s %-5s %14d %12d %8d@." name mm
            r.Space.stats.Space.configurations
            r.Space.stats.Space.transitions r.Space.stats.Space.errors)
        [ ("sc", Step.Sc); ("tso", Step.Tso); ("pso", Step.Pso) ])
    e19_models;
  let sc = e19_run "peterson" Step.Sc in
  let pso = e19_run "peterson" Step.Pso in
  row "blowup: peterson %d configs under SC, %d under PSO (%.0fx)@."
    sc.Space.stats.Space.configurations pso.Space.stats.Space.configurations
    (float_of_int pso.Space.stats.Space.configurations
    /. float_of_int sc.Space.stats.Space.configurations)

(* CI smoke variant: the acceptance gate — the unfenced protocols must
   violate mutual exclusion under both relaxed models, the fenced ones
   must verify clean under all three, and SC counts must sit at their
   pinned seed values.  Nonzero exit otherwise. *)
let e19smoke () =
  section "E19smoke" "memory-model protocol gate (CI gate)";
  let fail fmt =
    Format.kasprintf
      (fun m ->
        row "GATE FAILED: %s@." m;
        exit 1)
      fmt
  in
  let errors name model =
    let r = e19_run name model in
    if not (Budget.is_complete r.Space.status) then
      fail "%s did not complete" name;
    r.Space.stats.Space.errors
  in
  List.iter
    (fun (name, model, mm) ->
      if errors name model = 0 then
        fail "%s finds no violation under %s" name mm)
    [
      ("peterson", Step.Tso, "tso"); ("peterson", Step.Pso, "pso");
      ("dekker", Step.Tso, "tso"); ("dekker", Step.Pso, "pso");
    ];
  List.iter
    (fun name ->
      List.iter
        (fun (mm, model) ->
          let e = errors name model in
          if e <> 0 then fail "%s has %d errors under %s" name e mm)
        [ ("sc", Step.Sc); ("tso", Step.Tso); ("pso", Step.Pso) ])
    [ "peterson_fenced"; "dekker_fenced" ];
  let sc = e19_run "peterson" Step.Sc in
  if sc.Space.stats.Space.configurations <> 57 then
    fail "peterson SC configurations moved: %d (pinned 57)"
      sc.Space.stats.Space.configurations;
  row "gate passed: unfenced protocols break, fenced verify, SC pinned@."

(* --- E20: journal overhead — breadcrumbs on vs off ---

   The engines' journal breadcrumbs are sampled (one Debug progress
   event per [Journal.progress_every] pops) behind a single atomic load,
   so an exploration with the journal attached to a sink should cost
   about the same as one without — the docs claim ~2% on philosophers.
   Measured best-of-3 against a null sink; the smoke gate is
   deliberately looser (25%) because CI wall clocks are noisy. *)

let e20_measure () =
  let module Journal = Cobegin_obs.Journal in
  let src = Philosophers.program ~rounds:2 3 in
  let ctx = Step.make_ctx (parse src) in
  let run () = Space.full ctx in
  let best f =
    ignore (f ());
    (* warm-up *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t_off = best run in
  let null = open_out Filename.null in
  Journal.start ~threshold:Journal.Debug ~sink:null ();
  let t_on = best run in
  Journal.stop ();
  close_out null;
  (t_off, t_on)

let e20 () =
  section "E20" "Journal: enabled-vs-disabled exploration overhead";
  let t_off, t_on = e20_measure () in
  row
    "{\"workload\": \"philosophers-3 (2 rounds)\", \"journal\": \
     \"disabled\", \"wall_s\": %.4f}@."
    t_off;
  row
    "{\"workload\": \"philosophers-3 (2 rounds)\", \"journal\": \
     \"debug+sink\", \"wall_s\": %.4f, \"overhead\": \"%.1f%%\"}@."
    t_on
    ((t_on -. t_off) /. t_off *. 100.)

let e20smoke () =
  section "E20smoke" "journal overhead gate (CI gate)";
  let t_off, t_on = e20_measure () in
  let overhead = (t_on -. t_off) /. t_off *. 100. in
  row "journal off %.4fs, on %.4fs: %+.1f%% overhead@." t_off t_on overhead;
  if overhead > 25. then begin
    row "GATE FAILED: journal overhead %.1f%% exceeds 25%%@." overhead;
    exit 1
  end;
  row "gate passed: journal breadcrumbs are in the noise@."

(* --- E21: serve daemon — sustained requests/sec, cold vs warm ---

   One in-process daemon per pool size, driven over its Unix socket
   exactly like an external client.  The cold pass submits every
   corpus model once (all misses: each request runs the full pipeline,
   capped at 20k configurations); the warm pass submits the same
   requests again from [pool] concurrent client domains (all hits: the
   content-addressed cache replays the stored report bytes).  The
   smoke gate asserts what the cache promises — every warm response is
   a hit and, over three daemons, the median warm pass beats the median
   cold pass. *)

module Serve = Cobegin_serve.Serve
module Sjson = Cobegin_serve.Sjson

let e21_session ~pool f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cobegin-e21-%d-%d.sock" (Unix.getpid ()) pool)
  in
  let defaults = { Pipeline.default_options with max_configs = 20_000 } in
  let daemon =
    Serve.make
      {
        Serve.socket;
        capacity = 64;
        cache_dir = None;
        pool;
        defaults;
        spans = None;
      }
  in
  let d = Domain.spawn (fun () -> Serve.run daemon) in
  let rec req ?(tries = 100) line =
    match Serve.request ~socket line with
    | r -> r
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.05;
        req ~tries:(tries - 1) line
  in
  ignore (req {|{"op":"ping"}|});
  let result = f req in
  ignore (req {|{"op":"shutdown"}|});
  Domain.join d;
  result

let e21_lines () =
  List.map
    (fun name -> Serve.analyze_line (Option.get (Corpus.find name)))
    Corpus.names

let e21_is_hit resp =
  match Sjson.parse resp with
  | Ok j -> Sjson.member "cache" j = Some (Sjson.Str "hit")
  | Error _ -> false

(* (wall seconds, hit count) of one sequential pass over [lines]. *)
let e21_pass req lines =
  let t0 = Unix.gettimeofday () in
  let hits =
    List.fold_left
      (fun acc line -> if e21_is_hit (req line) then acc + 1 else acc)
      0 lines
  in
  (Unix.gettimeofday () -. t0, hits)

let e21_measure ~pool =
  let lines = e21_lines () in
  e21_session ~pool (fun req ->
      let cold_s, cold_hits = e21_pass req lines in
      (* warm: [pool] concurrent clients replaying the whole corpus *)
      let t0 = Unix.gettimeofday () in
      let clients =
        List.init pool (fun _ ->
            Domain.spawn (fun () ->
                List.fold_left
                  (fun acc line ->
                    if e21_is_hit (req line) then acc + 1 else acc)
                  0 lines))
      in
      let warm_hits = List.fold_left (fun a d -> a + Domain.join d) 0 clients in
      let warm_s = Unix.gettimeofday () -. t0 in
      let n = List.length lines in
      (n, cold_s, cold_hits, warm_s, warm_hits))

let e21 () =
  section "E21" "serve daemon: sustained requests/sec, cold vs warm";
  List.iter
    (fun pool ->
      let n, cold_s, cold_hits, warm_s, warm_hits = e21_measure ~pool in
      row
        "{\"pool\": %d, \"phase\": \"cold\", \"requests\": %d, \"wall_s\": \
         %.3f, \"req_per_s\": %.1f, \"hits\": %d}@."
        pool n cold_s
        (float_of_int n /. cold_s)
        cold_hits;
      row
        "{\"pool\": %d, \"phase\": \"warm\", \"requests\": %d, \"wall_s\": \
         %.3f, \"req_per_s\": %.1f, \"hits\": %d}@."
        pool (pool * n) warm_s
        (float_of_int (pool * n) /. warm_s)
        warm_hits)
    [ 1; 4 ]

(* Three sessions, each on a fresh daemon so its cold pass is all
   misses: every session must show the cache hitting, and the median warm
   pass must beat the median cold pass, so one scheduling hiccup on a busy
   host cannot fail the gate. *)
let e21smoke () =
  section "E21smoke" "serve cache gate (CI gate)";
  let lines = e21_lines () in
  let n = List.length lines in
  let sessions =
    List.init 3 (fun i ->
        let cold_s, cold_hits, warm_s, warm_hits =
          e21_session ~pool:2 (fun req ->
              let cold_s, cold_hits = e21_pass req lines in
              let warm_s, warm_hits = e21_pass req lines in
              (cold_s, cold_hits, warm_s, warm_hits))
        in
        row
          "session %d: cold %d requests in %.3fs (%d hits); warm %d in %.3fs \
           (%d hits)@."
          (i + 1) n cold_s cold_hits n warm_s warm_hits;
        if cold_hits <> 0 then begin
          row "GATE FAILED: %d cold submissions hit a supposedly empty cache@."
            cold_hits;
          exit 1
        end;
        if warm_hits <> n then begin
          row "GATE FAILED: only %d of %d warm submissions were cache hits@."
            warm_hits n;
          exit 1
        end;
        (cold_s, warm_s))
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let cold_s = median (List.map fst sessions)
  and warm_s = median (List.map snd sessions) in
  if warm_s >= cold_s then begin
    row "GATE FAILED: median warm pass (%.3fs) not faster than cold (%.3fs)@."
      warm_s cold_s;
    exit 1
  end;
  row
    "gate passed: every second submission a hit, median warm %.0fx faster@."
    (cold_s /. warm_s)

(* --- Bechamel timings: one per experiment family --- *)

let bechamel () =
  section "TIMING" "Bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let fig5 = parse Figures.fig5 in
  let fig8 = parse Figures.fig8 in
  let phil4 = Philosophers.net 4 in
  let tests =
    [
      Test.make ~name:"E3-fig5-full"
        (Staged.stage (fun () -> Space.full (Step.make_ctx fig5)));
      Test.make ~name:"E3-fig5-stubborn"
        (Staged.stage (fun () -> Stubborn.explore (Step.make_ctx fig5)));
      Test.make ~name:"E4-phil4-full"
        (Staged.stage (fun () -> Reach.full phil4));
      Test.make ~name:"E4-phil4-stubborn"
        (Staged.stage (fun () -> Reach.stubborn phil4));
      Test.make ~name:"E2-fig3-abstract"
        (Staged.stage (fun () ->
             Analyzer.analyze ~folding:Machine.Control (parse Figures.fig3)));
      Test.make ~name:"E6-fig8-pipeline"
        (Staged.stage (fun () -> Pipeline.analyze fig8));
      Test.make ~name:"E7-coarsen-fig5"
        (Staged.stage (fun () -> Cobegin_trans.Coarsen.program fig5));
      Test.make ~name:"E8-clan3"
        (Staged.stage (fun () ->
             Analyzer.analyze ~folding:Machine.Clan
               (parse (Figures.clan_workload 3))));
    ]
  in
  let grouped = Test.make_grouped ~name:"experiments" ~fmt:"%s %s" tests in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name r acc ->
        let est =
          match Analyze.OLS.estimates r with
          | Some [ e ] -> e
          | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  row "%-32s %16s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      row "%-32s %16s@." name pretty)
    rows

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E14smoke", e14smoke);
    ("E15", e15); ("E16", e16); ("E16smoke", e16smoke); ("E17", e17);
    ("E18", e18); ("E18smoke", e18smoke); ("E19", e19);
    ("E19smoke", e19smoke); ("E20", e20); ("E20smoke", e20smoke);
    ("E21", e21); ("E21smoke", e21smoke);
    ("TIMING", bechamel);
  ]

let () =
  let wanted = Array.to_list Sys.argv |> List.tl in
  let run (id, f) =
    if wanted = [] || List.mem id wanted then f ()
  in
  Format.printf
    "Reproduction harness — Chow & Harrison, ICPP 1992 (see EXPERIMENTS.md)@.";
  List.iter run experiments;
  Format.printf "@.done.@."
