(* Thread-modular interference analysis: the corpus-wide soundness
   contract (concrete terminal stores ⊆ abstract per-variable results),
   the precision pins (Peterson unprovable, lock-based critical sections
   provable only with locksets), and the budget/chaos/telemetry seams. *)

open Cobegin_absint
open Helpers
module Space = Cobegin_explore.Space
module Config = Cobegin_semantics.Config
module Store = Cobegin_semantics.Store
module Lockset = Cobegin_static.Lockset

let interfere ?domain ?locksets ?budget prog =
  Interfere.run ?domain ?locksets ?budget (Lockset.of_program prog)

(* Every store binding of every terminal configuration (final, deadlock,
   error) of a completed explicit run. *)
let terminal_bindings (r : Space.result) =
  List.concat_map
    (fun (c : Config.t) -> Store.bindings c.Config.store)
    (r.Space.final_configs @ r.Space.deadlock_configs
   @ r.Space.error_configs)

let all_domains =
  [
    Analyzer.Intervals;
    Analyzer.Constants;
    Analyzer.Signs;
    Analyzer.Parities;
    Analyzer.Interval_parity;
  ]

(* The contract on one program: if the explicit engine finishes, every
   concrete terminal binding is contained in the abstract results — for
   every numeric domain, with and without the lockset refinement. *)
let assert_sound ~name prog (r : Space.result) =
  let bindings = terminal_bindings r in
  List.iter
    (fun domain ->
      List.iter
        (fun locksets ->
          let s = interfere ~domain ~locksets prog in
          match s.Interfere.check bindings with
          | [] -> ()
          | vs ->
              Alcotest.failf
                "%s (%s, locksets=%b): %d of %d concrete bindings escape \
                 the abstraction"
                name
                (Format.asprintf "%a" Analyzer.pp_domain domain)
                locksets (List.length vs) (List.length bindings))
        [ true; false ])
    all_domains

let corpus_soundness () =
  List.iter
    (fun (name, src) ->
      let prog = parse src in
      let r =
        Space.full ~max_configs:200_000 (Cobegin_semantics.Step.make_ctx prog)
      in
      match r.Space.status with
      | Budget.Truncated _ -> () (* no claim on a partial reference run *)
      | Budget.Complete -> assert_sound ~name prog r)
    Cobegin_models.Corpus.all

let random_soundness =
  qtest ~count:60 "random programs: concrete terminal stores contained"
    seed_gen (fun seed ->
      let prog = random_program seed in
      let r =
        Space.full ~max_configs:20_000 (Cobegin_semantics.Step.make_ctx prog)
      in
      match r.Space.status with
      | Budget.Truncated _ -> true
      | Budget.Complete ->
          let bindings = terminal_bindings r in
          List.for_all
            (fun locksets ->
              let s = interfere ~locksets prog in
              s.Interfere.check bindings = [])
            [ true; false ])

(* --- precision pins --- *)

(* Peterson is an await-based protocol: its mutual exclusion depends on
   happens-before ordering the thread-modular abstraction cannot see, so
   the assert must stay unprovable — locksets cannot help (there are no
   locks).  This pins the engine's precision class; if a change makes
   Peterson "provable", the engine is unsound. *)
let peterson_pin () =
  let src = Option.get (Cobegin_models.Corpus.find "peterson") in
  List.iter
    (fun locksets ->
      let s = interfere ~locksets (parse src) in
      check_bool
        (Printf.sprintf "peterson unprovable (locksets=%b)" locksets)
        false
        (s.Interfere.verdicts.Interfere.assert_may_fail = []))
    [ true; false ]

(* A lock-based critical section IS provable — but only with the lock
   invariant refinement; without it the same assert is flagged. *)
let lock_critical_src =
  {|
proc main() {
  var l = 0;
  var incrit = 0;
  cobegin
    { lock(l); incrit = incrit + 1; assert(incrit == 1);
      incrit = incrit - 1; unlock(l); }
    { lock(l); incrit = incrit + 1; assert(incrit == 1);
      incrit = incrit - 1; unlock(l); }
  coend;
}
|}

let lock_critical_pin () =
  let with_locks = interfere ~locksets:true (parse lock_critical_src) in
  check_bool "provable with locksets" true
    (with_locks.Interfere.verdicts.Interfere.assert_may_fail = []);
  check_bool "incrit is protected" true
    (List.mem_assoc "incrit" with_locks.Interfere.protected_);
  let without = interfere ~locksets:false (parse lock_critical_src) in
  check_bool "unprovable without locksets" false
    (without.Interfere.verdicts.Interfere.assert_may_fail = [])

(* The corpus mutex model asserts after the join; its count is read
   outside any critical section, so it stays unprovable in both modes —
   a pin against accidentally trusting the invariant outside the lock. *)
let mutex_pin () =
  let src = Option.get (Cobegin_models.Corpus.find "mutex") in
  List.iter
    (fun locksets ->
      let s = interfere ~locksets (parse src) in
      check_bool
        (Printf.sprintf "mutex assert-after-join unprovable (locksets=%b)"
           locksets)
        false
        (s.Interfere.verdicts.Interfere.assert_may_fail = []))
    [ true; false ]

(* --- verdicts --- *)

let never_proceeds () =
  let s =
    interfere
      (parse
         {|
proc main() {
  var x = 0;
  cobegin
    { x = 0; }
    { await(x == 1); }
  coend;
}
|})
  in
  check_bool "await(x==1) never satisfiable" false
    (s.Interfere.verdicts.Interfere.never_proceeds = [])

let error_sites () =
  let s =
    interfere (parse {|
proc main() {
  var x = 1;
  var y = *x;
}
|})
  in
  check_bool "deref of a non-pointer is an error site" false
    (s.Interfere.verdicts.Interfere.error_sites = [])

let races_refined () =
  (* fig2 has unprotected cross writes; philosophers' accesses are all
     lock-protected *)
  let fig2 = interfere (parse (Option.get (Cobegin_models.Corpus.find "fig2"))) in
  check_bool "fig2 has race candidates" false
    (fig2.Interfere.verdicts.Interfere.races = []);
  let mutex_src = Option.get (Cobegin_models.Corpus.find "mutex") in
  let mutex = interfere (parse mutex_src) in
  check_bool "mutex lockset-clean" true
    (mutex.Interfere.verdicts.Interfere.races = []);
  let mutex_raw = interfere ~locksets:false (parse mutex_src) in
  check_bool "mutex races without lockset refinement" false
    (mutex_raw.Interfere.verdicts.Interfere.races = [])

(* --- race candidates: the static base's races, reach-filtered --- *)

(* The law on one program and lockset mode: the candidates are
   [Lockset.races ~locks] restricted to the races whose two endpoints the
   reporting pass reached — a sublist of it, in its order, with both
   endpoints of each candidate abstractly reachable. *)
let candidates_law ~locksets prog =
  let ls = Lockset.of_program prog in
  let s = Interfere.run ~locksets ls in
  let reached l = List.mem l s.Interfere.reachable in
  s.Interfere.verdicts.Interfere.races
  = List.filter
      (fun (r : Lockset.race) -> reached r.r_stmt1 && reached r.r_stmt2)
      (Lockset.races ~locks:locksets ls)

let candidates_law_corpus () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun locksets ->
          check_bool
            (Printf.sprintf "%s (locksets=%b)" name locksets)
            true
            (candidates_law ~locksets (parse src)))
        [ true; false ])
    Cobegin_models.Corpus.all

let candidates_law_random =
  qtest ~count:100 "random programs: candidates are reach-filtered races"
    seed_gen (fun seed ->
      let prog = random_program seed in
      candidates_law ~locksets:true prog && candidates_law ~locksets:false prog)

(* Candidate counts per corpus model, locksets on; with locksets off
   only [unlocked] differ. *)
let locked_counts =
  [
    ("fig2", 2); ("fig3", 1); ("fig5", 1); ("example8", 2); ("fig8", 3);
    ("busywait", 1); ("mutex_racy", 3); ("peterson", 9);
    ("peterson_broken", 9); ("peterson_fenced", 9); ("dekker", 19);
    ("dekker_fenced", 19); ("readers_writers", 2);
  ]

let unlocked = [ ("mutex", 1); ("barrier2", 11); ("readers_writers", 4) ]

let candidates_pinned () =
  List.iter
    (fun (name, src) ->
      let ls = Lockset.of_program (parse src) in
      let count locksets =
        List.length
          (Interfere.run ~locksets ls).Interfere.verdicts.Interfere.races
      in
      let locked =
        Option.value ~default:0 (List.assoc_opt name locked_counts)
      in
      check_bool (name ^ ": the lint's races") true
        ((Interfere.run ls).Interfere.verdicts.Interfere.races
        = (Cobegin_static.Lint.run ls).Cobegin_static.Lint.races);
      check_int (name ^ " with locksets") locked (count true);
      check_int (name ^ " without locksets")
        (Option.value ~default:locked (List.assoc_opt name unlocked))
        (count false))
    Cobegin_models.Corpus.all

(* --- governance seams --- *)

let budget_truncation () =
  let src = Option.get (Cobegin_models.Corpus.find "peterson") in
  let budget = Budget.create ~max_configs:1 ~check_every:1 () in
  let s = interfere ~budget (parse src) in
  check_bool "tiny budget truncates the fixpoint" false
    (Budget.is_complete s.Interfere.status)

let chaos_site () =
  match Fault.parse "crash@interfere.iter:1" with
  | Error e -> Alcotest.failf "bad chaos spec: %s" e
  | Ok plan ->
      Fault.install plan;
      Fun.protect ~finally:Fault.clear (fun () ->
          let src = Option.get (Cobegin_models.Corpus.find "fig2") in
          match interfere (parse src) with
          | _ -> Alcotest.fail "expected the injected fault to escape"
          | exception Fault.Injected { site = "interfere.iter"; _ } -> ())

let pipeline_supervision () =
  (* the supervisor retries past a single injected crash: the report
     carries the recovery rung and a real summary *)
  match Fault.parse "crash@interfere.iter:1" with
  | Error e -> Alcotest.failf "bad chaos spec: %s" e
  | Ok plan ->
      Fault.install plan;
      Fun.protect ~finally:Fault.clear (fun () ->
          let src = Option.get (Cobegin_models.Corpus.find "mutex") in
          let options =
            { Cobegin_core.Pipeline.default_options with interfere = true }
          in
          let report =
            Cobegin_core.Pipeline.analyze_source ~options src
          in
          check_bool "summary delivered after retry" true
            (report.Cobegin_core.Pipeline.interference <> None);
          check_bool "recovery rung recorded" true
            (List.exists
               (fun (r : Cobegin_core.Pipeline.recovery_rung) ->
                 r.Cobegin_core.Pipeline.r_stage = "interfere")
               report.Cobegin_core.Pipeline.recovery))

let pipeline_stage () =
  let src = Option.get (Cobegin_models.Corpus.find "mutex") in
  let options =
    { Cobegin_core.Pipeline.default_options with interfere = true }
  in
  let report = Cobegin_core.Pipeline.analyze_source ~options src in
  match report.Cobegin_core.Pipeline.interference with
  | None -> Alcotest.fail "interference summary missing"
  | Some s ->
      check_bool "stage summary complete" true
        (Budget.is_complete s.Interfere.status);
      check_bool "count is shared" true
        (List.mem "count" s.Interfere.shared)

let metrics_namespace () =
  let module M = Cobegin_obs.Metrics in
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled false)
    (fun () ->
      M.reset ();
      let src = Option.get (Cobegin_models.Corpus.find "fig2") in
      ignore (interfere (parse src));
      check_bool "interfere.rounds counted" true
        (M.counter_value (M.counter "interfere.rounds") > 0);
      check_bool "interfere.stmt_visits counted" true
        (M.counter_value (M.counter "interfere.stmt_visits") > 0))

let suite =
  [
    case "corpus soundness (all domains, both lockset modes)"
      corpus_soundness;
    random_soundness;
    case "precision pin: peterson stays unprovable" peterson_pin;
    case "precision pin: lock-based critical section" lock_critical_pin;
    case "precision pin: mutex assert-after-join" mutex_pin;
    case "verdict: never-satisfiable await" never_proceeds;
    case "verdict: error sites" error_sites;
    case "verdict: races refined by locksets" races_refined;
    case "candidates are reach-filtered static races (corpus)"
      candidates_law_corpus;
    candidates_law_random;
    case "candidate counts pinned on the corpus" candidates_pinned;
    case "budget truncation" budget_truncation;
    case "chaos: interfere.iter is a fault site" chaos_site;
    case "pipeline: supervised retry past a crash" pipeline_supervision;
    case "pipeline: interfere stage delivers a summary" pipeline_stage;
    case "telemetry: interfere.* metrics" metrics_namespace;
  ]
