(* Abstract machine: precision on straight-line code, termination on
   loops via widening, folding hierarchy, soundness against the concrete
   engine. *)

open Cobegin_absint
open Helpers

let analyze ?(domain = Analyzer.Intervals) ?(folding = Machine.Control) src =
  Analyzer.analyze ~domain ~folding (parse src)

let basic_tests =
  [
    case "terminates on an unbounded-iteration loop" (fun () ->
        let s =
          analyze
            "proc main() { var i = 0; while (i < 100) { i = i + 1; } }"
        in
        check_bool "finite abstract space" true (s.Analyzer.abstract_configs > 0);
        check_int "no errors" 0 s.Analyzer.errors);
    case "terminates on a nondeterministic loop with cobegin" (fun () ->
        let s =
          analyze
            "proc main() { var s = 0; var i = 0; while (i < 10) { i = i + \
             1; cobegin { s = s + 1; } { s = s + 2; } coend; } }"
        in
        check_int "no errors" 0 s.Analyzer.errors;
        check_bool "widenings happened" true (s.Analyzer.widenings > 0));
    case "assert that always holds produces no abstract error" (fun () ->
        let s = analyze "proc main() { var x = 3; assert(x == 3); }" in
        check_int "none" 0 s.Analyzer.errors);
    case "assert that may fail produces an abstract error" (fun () ->
        let s =
          analyze
            "proc main() { var x = 0; cobegin { x = 1; } { x = 2; } coend; \
             assert(x == 1); }"
        in
        check_bool "flagged" true (s.Analyzer.errors > 0));
    case "branch refinement prunes an impossible branch" (fun () ->
        (* with refinement, x < 0 inside the then-branch is impossible *)
        let s =
          analyze
            "proc main() { var x = 5; if (x > 0) { assert(x > 0); } else { \
             skip; } }"
        in
        check_int "no false alarm" 0 s.Analyzer.errors);
    case "all four numeric domains run the figures" (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun domain ->
                let s = Analyzer.analyze ~domain (parse src) in
                check_bool
                  (name ^ " explored")
                  true
                  (s.Analyzer.abstract_configs > 0))
              [
                Analyzer.Intervals; Analyzer.Constants; Analyzer.Signs;
                Analyzer.Parities; Analyzer.Interval_parity;
              ])
          Cobegin_models.Figures.all_named);
  ]

let folding_tests =
  [
    case "folding hierarchy: exact >= control >= clan on the clan workload"
      (fun () ->
        let src = Cobegin_models.Figures.clan_workload 3 in
        let sizes =
          List.map
            (fun folding ->
              (Analyzer.analyze ~folding (parse src)).Analyzer.abstract_configs)
            [ Machine.Exact; Machine.Control; Machine.Clan ]
        in
        match sizes with
        | [ e; c; k ] ->
            check_bool "exact >= control" true (e >= c);
            check_bool "control >= clan" true (c >= k);
            check_bool "clan strictly folds" true (k < e)
        | _ -> assert false);
    case "clan folding beats control folding as branches multiply"
      (fun () ->
        (* McDowell's point: with k identical tasks the per-branch
           identity blows the space up; clans keep only the multiset of
           positions.  The advantage must grow with k. *)
        let size folding k =
          (Analyzer.analyze ~folding
             (parse (Cobegin_models.Figures.clan_workload k)))
            .Analyzer.abstract_configs
        in
        let ratio k =
          float_of_int (size Machine.Control k)
          /. float_of_int (size Machine.Clan k)
        in
        check_bool "clan smaller at k=3" true
          (size Machine.Clan 3 < size Machine.Control 3);
        check_bool "advantage grows" true (ratio 4 > ratio 2));
    case "control folding merges the fig3 dangling links" (fun () ->
        (* concretely the racing writes leave two result-configurations;
           the abstract machine folds them into one per control point *)
        let concrete = explore_full Cobegin_models.Figures.fig3 in
        let abstract = analyze Cobegin_models.Figures.fig3 in
        check_int "concrete finals" 2
          concrete.Cobegin_explore.Space.stats.Cobegin_explore.Space.finals;
        check_int "abstract finals" 1 abstract.Analyzer.finals);
  ]

(* Soundness: every concrete final store is covered by some abstract
   exploration's log/accesses — we check a weaker but meaningful
   corollary on random programs: the abstract engine never reports zero
   errors when the concrete engine finds an assertion failure. *)
let soundness_tests =
  [
    qtest ~count:20 "abstract errors over-approximate concrete errors"
      seed_gen
      (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 2;
          }
        in
        let prog = random_program ~cfg seed in
        let concrete =
          Cobegin_explore.Space.full ~max_configs:20_000
            (Cobegin_semantics.Step.make_ctx prog)
        in
        let abstract = Analyzer.analyze ~max_configs:20_000 prog in
        if
          not
            (Budget.is_complete concrete.Cobegin_explore.Space.status
            && Budget.is_complete abstract.Analyzer.status)
        then true
        else
          (* concrete error ⇒ abstract error *)
          concrete.Cobegin_explore.Space.stats.Cobegin_explore.Space.errors
          = 0
          || abstract.Analyzer.errors > 0);
    qtest ~count:20
      "abstract accesses cover concrete accesses (per site and kind)"
      seed_gen
      (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 2;
            with_loops = false;
          }
        in
        let prog = random_program ~cfg seed in
        let concrete =
          Cobegin_explore.Space.full ~max_configs:20_000
            (Cobegin_semantics.Step.make_ctx prog)
        in
        let abstract = Analyzer.analyze ~max_configs:20_000 prog in
        if
          not
            (Budget.is_complete concrete.Cobegin_explore.Space.status
            && Budget.is_complete abstract.Analyzer.status)
        then true
        else
            let alog = abstract.Analyzer.log in
            let abstract_pairs =
              List.map
                (fun (a : Alog.access) ->
                  (a.Alog.label, a.Alog.kind = Alog.Write))
                (Alog.accesses alog)
              |> List.sort_uniq compare
            in
            List.for_all
              (fun (a : Cobegin_semantics.Step.access) ->
                a.Cobegin_semantics.Step.a_label < 0
                || List.mem
                     ( a.Cobegin_semantics.Step.a_label,
                       a.Cobegin_semantics.Step.a_kind = `Write )
                     abstract_pairs)
              concrete.Cobegin_explore.Space.log.Cobegin_semantics.Step.accesses);
  ]

let machine_unit_tests =
  [
    case "interval machine computes a loop invariant" (fun () ->
        let module M = Machine.Make (Cobegin_domains.Interval) in
        let prog =
          parse "proc main() { var i = 0; while (i < 10) { i = i + 1; } }"
        in
        let ctx = M.make_ctx prog in
        let r = M.explore ~folding:Machine.Control ctx in
        (* the final store must bound i: 10 <= i (loop exit) *)
        check_bool "has final" true (r.M.final_stores <> []);
        let covers_ten =
          List.exists
            (fun store ->
              M.AM.exists
                (fun _ v ->
                  Cobegin_domains.Interval.contains
                    v.M.V.num 10)
                store)
            r.M.final_stores
        in
        check_bool "i may be 10 at exit" true covers_ten);
    case "indirect calls explore every callee" (fun () ->
        let s =
          analyze
            "proc a() { return 1; } proc b() { return 2; } proc main() { \
             var f = a; var c = 0; if (c == 0) { f = b; } var r = (f)(); \
             assert(r >= 1); }"
        in
        check_int "no errors" 0 s.Analyzer.errors);
    case "recursion is bounded by the call-depth parameter" (fun () ->
        (* the abstract machine cannot prove this recursion terminates
           (the parameter cell is weakly updated), so the depth bound
           kicks in and the analysis finishes, flagging the truncated
           path as a potential error *)
        let s =
          Analyzer.analyze ~k_pstring:3 ~max_call_depth:8
            ~max_configs:50_000
            (parse
               "proc f(n) { if (n <= 0) { return 0; } var r = f(n - 1); \
                return r; } proc main() { var x = f(3); }")
        in
        check_bool "finished" true (s.Analyzer.abstract_configs > 0));
  ]

(* Strong vs weak updates and the multi set. *)
let update_tests =
  [
    case "strong update: later assignment replaces the value" (fun () ->
        let s =
          analyze "proc main() { var x = 1; x = 2; assert(x == 2); }"
        in
        check_int "no false alarm" 0 s.Analyzer.errors);
    case "loop-allocated cell becomes multi: weak updates join" (fun () ->
        (* t is re-declared every iteration, so its abstract cell is
           multi; the assert on a specific iteration value cannot be
           proved and must be flagged as a possible failure *)
        let s =
          analyze
            "proc main() { var i = 0; while (i < 3) { var t = i; assert(t \
             == 0); i = i + 1; } }"
        in
        check_bool "possible failure reported" true (s.Analyzer.errors > 0));
    case "aliased writes through two pointers stay weak" (fun () ->
        (* both p and q may point to the same cell; writing through p
           must not strongly overwrite what q sees *)
        let s =
          analyze
            "proc main() { var a = malloc(1); var b = malloc(1); var p = a; \
             var c = 0; if (c == 1) { p = b; } *p = 5; var x = *a; \
             assert(x == 0 || x == 5); }"
        in
        check_int "no false alarm" 0 s.Analyzer.errors);
    case "heap cells from one site conflate (weak)" (fun () ->
        let s =
          analyze
            "proc main() { var i = 0; var p = malloc(1); while (i < 2) { p \
             = malloc(1); *p = i; i = i + 1; } }"
        in
        check_int "terminates, no errors" 0 s.Analyzer.errors);
    case "clan folding is exact on symmetric branches" (fun () ->
        (* same final verdicts as control folding on the clan workload *)
        let src = Cobegin_models.Figures.clan_workload 3 in
        let c = Analyzer.analyze ~folding:Machine.Control (parse src) in
        let k = Analyzer.analyze ~folding:Machine.Clan (parse src) in
        check_int "same errors" c.Analyzer.errors k.Analyzer.errors;
        check_bool "both reach a final" true
          (c.Analyzer.finals > 0 && k.Analyzer.finals > 0));
  ]

(* The abstract machine on the exploration kernel: every complete run's
   counts and log equal the pins taken from the worklist it replaced
   (Absint_pins); a truncated run drains the queued terminals. *)
let kernel_tests =
  let domains =
    [
      ("intervals", Analyzer.Intervals); ("constants", Analyzer.Constants);
      ("signs", Analyzer.Signs); ("parity", Analyzer.Parities);
      ("intparity", Analyzer.Interval_parity);
    ]
  and foldings =
    [ ("exact", Machine.Exact); ("control", Machine.Control); ("clan", Machine.Clan) ]
  in
  [
    case "complete corpus runs equal the pinned counts and logs" (fun () ->
        List.iter
          (fun (model, domain, folding, counts, digest) ->
            let s =
              Analyzer.analyze ~domain:(List.assoc domain domains)
                ~folding:(List.assoc folding foldings)
                (parse (Option.get (Cobegin_models.Corpus.find model)))
            in
            let name = String.concat "/" [ model; domain; folding ] in
            check_bool (name ^ " complete") true (Budget.is_complete s.Analyzer.status);
            check_bool (name ^ " counts") true
              (counts
              = Analyzer.
                  ( s.abstract_configs, s.revisits, s.widenings,
                    s.max_frontier, s.finals, s.errors ));
            check_string (name ^ " log") digest
              (String.sub
                 (Digest.to_hex
                    (Digest.string (Format.asprintf "%a" Alog.pp s.Analyzer.log)))
                 0 12))
          Absint_pins.complete;
        check_int "every corpus run is pinned"
          (List.length Cobegin_models.Corpus.all * 15)
          (List.length Absint_pins.complete));
    case "a truncated run counts the terminals left in its queue" (fun () ->
        let s =
          Analyzer.analyze ~domain:Analyzer.Signs ~folding:Machine.Control
            ~max_configs:30
            (parse Cobegin_models.Protocols.peterson)
        in
        check_bool "truncated" true
          (s.Analyzer.status = Budget.Truncated (Budget.Configs 30));
        check_int "configurations" 30 s.Analyzer.abstract_configs;
        check_int "revisits" 10 s.Analyzer.revisits;
        check_int "widenings" 0 s.Analyzer.widenings;
        check_int "errors, one of them drained" 2 s.Analyzer.errors);
  ]

let suite =
  basic_tests @ folding_tests @ soundness_tests @ machine_unit_tests
  @ update_tests @ kernel_tests
