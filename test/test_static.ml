(* The static concurrency lint suite, and its soundness contract against
   the dynamic explorer: on every corpus program (and on random
   generated ones), the static race report is a superset of [Race.find]
   per statement-label pair — static over-approximates, never misses. *)

open Cobegin_static
open Helpers
module SS = Cobegin_lang.Ast.StringSet

let lint_prog prog = Lint.run (Lockset.of_program prog)
let lint src = lint_prog (parse src)

let labels prog =
  List.rev (Cobegin_lang.Ast.fold_program (fun acc s -> s.label :: acc) [] prog)

(* The normalized label pairs [Mhp.may_happen_parallel] admits, asked of
   every label pair of the program. *)
let mhp_pairs prog =
  let mhp = Mhp.of_program prog in
  let ls = labels prog in
  List.concat_map
    (fun l1 ->
      List.filter_map
        (fun l2 ->
          if l1 <= l2 && Mhp.may_happen_parallel mhp l1 l2 then Some (l1, l2)
          else None)
        ls)
    ls

let static_pairs src = Lockset.race_pairs (lint src).Lint.races

let dynamic_pairs ?max_configs src =
  let r = Cobegin_analysis.Race.find ?max_configs (ctx_of src) in
  ( Cobegin_analysis.Race.RaceSet.fold
      (fun (race : Cobegin_analysis.Race.race) acc ->
        (race.stmt1, race.stmt2) :: acc)
      r.Cobegin_analysis.Race.races []
    |> List.sort_uniq compare,
    r.Cobegin_analysis.Race.status )

(* dynamic ⊆ static, as (stmt1, stmt2) pairs *)
let superset_holds ?max_configs src =
  let dyn, status = dynamic_pairs ?max_configs src in
  let st = static_pairs src in
  match status with
  | Budget.Truncated _ -> true (* prefix only: no claim *)
  | Budget.Complete -> List.for_all (fun p -> List.mem p st) dyn

let missing ?max_configs src =
  let dyn, _ = dynamic_pairs ?max_configs src in
  let st = static_pairs src in
  List.filter (fun p -> not (List.mem p st)) dyn

let cross_validation_tests =
  List.map
    (fun (name, src) ->
      case (Printf.sprintf "cross-validate %s" name) (fun () ->
          check_bool
            (Printf.sprintf "dynamic races of %s missing statically: %s" name
               (String.concat ", "
                  (List.map
                     (fun (a, b) -> Printf.sprintf "(s%d,s%d)" a b)
                     (missing ~max_configs:300_000 src))))
            true
            (superset_holds ~max_configs:300_000 src)))
    Cobegin_models.Corpus.all

let random_cross_validation =
  [
    qtest ~count:40 "random programs: static races ⊇ dynamic races" seed_gen
      (fun seed ->
        let src = Cobegin_models.Generator.source ~seed () in
        superset_holds ~max_configs:50_000 src);
  ]

let race_tests =
  [
    case "mutex: lockset suppresses the counter accesses" (fun () ->
        check_bool "no static races" true
          (static_pairs Cobegin_models.Figures.mutex = []));
    case "mutex_racy: counter race reported" (fun () ->
        let r = lint Cobegin_models.Figures.mutex_racy in
        check_bool "has races" true (r.Lint.races <> []);
        check_bool "a write/write race on count" true
          (List.exists
             (fun (race : Lockset.race) ->
               race.r_ww && race.r_what = "count")
             r.Lint.races));
    case "race pairs are normalized and canonically sorted" (fun () ->
        let rs = (lint Cobegin_models.Figures.mutex_racy).Lint.races in
        check_bool "stmt1 <= stmt2" true
          (List.for_all
             (fun (r : Lockset.race) -> r.r_stmt1 <= r.r_stmt2)
             rs);
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              Lockset.compare_race a b < 0 && sorted rest
          | _ -> true
        in
        check_bool "strictly ascending" true (sorted rs));
    case "sequential program: no MHP pairs, no races" (fun () ->
        let prog = parse "proc main() { var x = 0; x = 1; x = x + 1; }" in
        check_bool "no pairs" true (mhp_pairs prog = []);
        check_bool "no races" true ((lint_prog prog).Lint.races = []));
    case "interior statements of called procedures join the MHP relation"
      (fun () ->
        let prog =
          parse
            "proc work(p) { var t = p + 1; t = t * 2; }\n\
             proc main() { cobegin { work(1); } { work(2); } coend; }"
        in
        (* the worker body is reachable from both branches: its labels
           are MHP with themselves *)
        check_bool "self-pairs exist" true
          (List.exists (fun (a, b) -> a = b) (mhp_pairs prog));
        (* ...but its locals are per-instance: no races by name *)
        check_bool "no races on locals" true
          ((lint_prog prog).Lint.races = []));
    case "pointer accesses race through the memory token" (fun () ->
        let r =
          lint
            "proc main() { var a = 0; var p = &a; cobegin { *p = 1; } { a = \
             2; } coend; }"
        in
        check_bool "has races" true (r.Lint.races <> []));
  ]

(* --- MHP against the pair set it replaced --- *)

module PairSet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* The relation as [Mhp] used to store it: each site of a branch crossed
   with each site of every later branch of the same context. *)
let oracle_pairs mhp =
  List.fold_left
    (fun acc (c : Mhp.context) ->
      let rec cross acc = function
        | [] -> acc
        | (b : Mhp.branch) :: rest ->
            let acc =
              List.fold_left
                (fun acc (b' : Mhp.branch) ->
                  List.fold_left
                    (fun acc (s1 : Mhp.site) ->
                      List.fold_left
                        (fun acc (s2 : Mhp.site) ->
                          let l1 = s1.s_label and l2 = s2.s_label in
                          PairSet.add (min l1 l2, max l1 l2) acc)
                        acc b'.b_sites)
                    acc b.b_sites)
                acc rest
            in
            cross acc rest
      in
      cross acc c.c_branches)
    PairSet.empty (Mhp.contexts mhp)

(* [may_happen_parallel] equals oracle membership on every ordered label
   pair, self-pairs included. *)
let mhp_matches_oracle prog =
  let mhp = Mhp.of_program prog in
  let oracle = oracle_pairs mhp in
  let ls = labels prog in
  List.for_all
    (fun l1 ->
      List.for_all
        (fun l2 ->
          Mhp.may_happen_parallel mhp l1 l2
          = PairSet.mem (min l1 l2, max l1 l2) oracle)
        ls)
    ls

let mhp_oracle_tests =
  [
    case "MHP index equals the pair-set oracle on the corpus" (fun () ->
        List.iter
          (fun (name, src) ->
            check_bool name true (mhp_matches_oracle (parse src)))
          Cobegin_models.Corpus.all);
    qtest ~count:40 "random programs: MHP index equals the pair-set oracle"
      seed_gen (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 3;
            stmts_per_branch = 6;
          }
        in
        mhp_matches_oracle (random_program ~cfg seed));
  ]

let deadlock_tests =
  [
    case "philosophers: lock-order cycle found, matching dynamic deadlock"
      (fun () ->
        let src = Cobegin_models.Philosophers.program 2 in
        let r = lint src in
        check_bool "cycle found" true (r.Lint.cycles <> []);
        check_bool "cycle names both forks" true
          (List.exists
             (fun (c : Deadlock.cycle) ->
               c.locks = [ "fork0"; "fork1" ])
             r.Lint.cycles);
        let dyn = explore_full src in
        check_bool "explorer agrees a deadlock is reachable" true
          (dyn.Cobegin_explore.Space.stats.Cobegin_explore.Space.deadlocks > 0));
    case "consistent lock order: no cycle" (fun () ->
        let r =
          lint
            "proc main() { var a = 0; var b = 0; cobegin { lock(a); lock(b); \
             unlock(b); unlock(a); } { lock(a); lock(b); unlock(b); \
             unlock(a); } coend; }"
        in
        check_bool "no cycles" true (r.Lint.cycles = []));
    case "lock-order cycles pinned on the corpus" (fun () ->
        (* the cycle check is the only reader of [may_happen_parallel] *)
        List.iter
          (fun (name, src) ->
            let want =
              if List.mem name [ "phil2"; "phil3"; "phil2r2" ] then 1 else 0
            in
            check_int name want (List.length (lint src).Lint.cycles))
          Cobegin_models.Corpus.all);
    case "opposite order but sequential: no MHP, no cycle" (fun () ->
        let r =
          lint
            "proc main() { var a = 0; var b = 0; lock(a); lock(b); unlock(b); \
             unlock(a); lock(b); lock(a); unlock(a); unlock(b); }"
        in
        check_bool "no cycles" true (r.Lint.cycles = []));
  ]

let lint_rule_tests =
  [
    case "double acquire is an error" (fun () ->
        let r = lint "proc main() { var l = 0; lock(l); lock(l); }" in
        check_bool "double-acquire reported" true
          (List.exists
             (fun (f : Report.finding) ->
               f.f_rule = "double-acquire" && f.f_severity = Report.Error)
             r.Lint.findings));
    case "release without acquire warns" (fun () ->
        let r = lint "proc main() { var l = 0; unlock(l); }" in
        check_bool "release-unheld reported" true
          (List.exists
             (fun (f : Report.finding) -> f.f_rule = "release-unheld")
             r.Lint.findings));
    case "paired lock region: no lock-discipline findings" (fun () ->
        let r =
          lint "proc main() { var l = 0; lock(l); unlock(l); lock(l); \
                unlock(l); }"
        in
        check_bool "clean" true (r.Lint.findings = []));
    case "await nobody can satisfy is flagged" (fun () ->
        let r =
          lint
            "proc main() { var f = 0; cobegin { await(f == 1); } { var x = 1; \
             } coend; }"
        in
        check_bool "await-no-writer reported" true
          (List.exists
             (fun (fd : Report.finding) -> fd.f_rule = "await-no-writer")
             r.Lint.findings));
    case "await with a parallel writer is quiet" (fun () ->
        let r = lint Cobegin_models.Figures.busywait in
        check_bool "no await finding" true
          (not
             (List.exists
                (fun (fd : Report.finding) -> fd.f_rule = "await-no-writer")
                r.Lint.findings)));
    case "await satisfied through a pointer writer is quiet" (fun () ->
        let r =
          lint
            "proc main() { var f = 0; var p = &f; cobegin { await(f == 1); } \
             { *p = 1; } coend; }"
        in
        check_bool "no await finding" true
          (not
             (List.exists
                (fun (fd : Report.finding) -> fd.f_rule = "await-no-writer")
                r.Lint.findings)));
  ]

let report_tests =
  [
    case "findings come out canonically sorted" (fun () ->
        List.iter
          (fun (_, src) ->
            let r = lint src in
            check_bool "canonical" true (Report.is_canonical r.Lint.findings))
          Cobegin_models.Corpus.all);
    case "sort is idempotent and total" (fun () ->
        let mk rule label other =
          {
            Report.f_rule = rule;
            f_severity = Report.Warning;
            f_label = label;
            f_other = other;
            f_message = "m";
          }
        in
        let fs =
          [ mk "b" (Some 3) None; mk "a" None None; mk "a" (Some 3) (Some 5) ]
        in
        let s = Report.sort fs in
        check_bool "canonical" true (Report.is_canonical s);
        check_bool "idempotent" true (Report.sort s = s);
        (* unlabeled first *)
        check_bool "unlabeled first" true
          ((List.hd s).Report.f_label = None));
    case "assert_canonical raises on unsorted input" (fun () ->
        let mk label =
          {
            Report.f_rule = "r";
            f_severity = Report.Info;
            f_label = Some label;
            f_other = None;
            f_message = "m";
          }
        in
        check_bool "raises" true
          (try
             Report.assert_canonical [ mk 9; mk 1 ];
             false
           with Report.Non_canonical -> true));
  ]

let stability_tests =
  [
    case "a lock passed as a parameter cannot suppress" (fun () ->
        (* each callee locks its own copy of the lock value: no mutual
           exclusion, so the count race must survive suppression *)
        let r =
          lint
            "proc work(l) { var t = 0; lock(l); t = 1; unlock(l); }\n\
             proc main() { var m = 0; var c = 0; cobegin { lock(m); c = c + \
             1; unlock(m); } { work(m); c = c + 1; } coend; }"
        in
        check_bool "count race reported" true
          (List.exists
             (fun (race : Lockset.race) -> race.r_what = "c")
             r.Lint.races));
    case "stray unlock voids suppression eligibility" (fun () ->
        (* a branch unlocks without holding: the lock can no longer
           justify suppressing the counter race *)
        let src =
          "proc main() { var l = 0; var c = 0; cobegin { lock(l); c = c + 1; \
           unlock(l); } { lock(l); c = c + 1; unlock(l); } { unlock(l); } \
           coend; }"
        in
        let r = lint src in
        check_bool "count race survives" true
          (List.exists
             (fun (race : Lockset.race) -> race.r_what = "c")
             r.Lint.races);
        check_bool "dynamic still a superset" true (superset_holds src));
  ]

let suite =
  cross_validation_tests @ random_cross_validation @ race_tests
  @ mhp_oracle_tests @ deadlock_tests @ lint_rule_tests @ report_tests @ stability_tests
