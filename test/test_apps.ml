(* The section-7 applications. *)

open Cobegin_core
open Cobegin_apps
open Helpers

let parallelize_tests =
  [
    case "fig8 reproduces the paper's dependence pairs" (fun () ->
        let prog = parse Cobegin_models.Figures.fig8 in
        let report = Pipeline.analyze prog in
        let par = Pipeline.parallelization report in
        (* segments are [s1; s2] and [s3; s4] in paper numbering *)
        match par.Parallelize.segments with
        | [ seg1; seg2 ] ->
            let s1 = List.nth seg1.Parallelize.stmts 0 in
            let s2 = List.nth seg1.Parallelize.stmts 1 in
            let s3 = List.nth seg2.Parallelize.stmts 0 in
            let s4 = List.nth seg2.Parallelize.stmts 1 in
            let has a b = List.mem (min a b, max a b) par.Parallelize.conflicts in
            check_bool "(s1,s4) conflicts" true (has s1 s4);
            check_bool "(s2,s3) conflicts" true (has s2 s3);
            check_bool "(s1,s3) independent" false (has s1 s3);
            check_bool "(s2,s4) independent" false (has s2 s4);
            (* both program arcs lie on the critical cycle *)
            check_int "two delays" 2 (List.length par.Parallelize.delays);
            check_int "two parallelizable pairs" 2
              (List.length par.Parallelize.parallelizable)
        | _ -> Alcotest.fail "expected two segments");
    case "independent calls need no delays" (fun () ->
        let src =
          "proc f(p) { *p = 1; } proc g(p) { *p = 2; } proc main() { var a \
           = malloc(1); var b = malloc(1); cobegin { f(a); f(a); } { g(b); \
           g(b); } coend; }"
        in
        let report = Pipeline.analyze (parse src) in
        let par = Pipeline.parallelization report in
        check_int "no conflicts" 0 (List.length par.Parallelize.conflicts);
        check_int "no delays" 0 (List.length par.Parallelize.delays);
        check_int "all arcs reorderable" 2
          (List.length par.Parallelize.reorderable));
    case "direct shasha-snir fragment (no calls)" (fun () ->
        let report = Pipeline.analyze (parse Cobegin_models.Figures.fig2) in
        let par = Pipeline.parallelization report in
        (* conflicts (a: s1 vs read) and (b) induce the critical cycle *)
        check_bool "delays needed" true (par.Parallelize.delays <> []));
    case "abstract engine reaches the same fig8 verdict" (fun () ->
        let prog = parse Cobegin_models.Figures.fig8 in
        let report =
          Pipeline.analyze
            ~options:
              {
                Pipeline.default_options with
                engine =
                  Pipeline.Abstract
                    ( Cobegin_absint.Analyzer.Intervals,
                      Cobegin_absint.Machine.Control );
              }
            prog
        in
        let par = Pipeline.parallelization report in
        check_int "two conflicts" 2 (List.length par.Parallelize.conflicts);
        check_int "two parallelizable" 2
          (List.length par.Parallelize.parallelizable));
  ]

(* Final stores restricted to root-created locations: the observable
   state of main (its variables and the heap blocks it allocated). *)
let root_finals p =
  let r =
    Cobegin_explore.Space.full ~max_configs:20_000
      (Cobegin_semantics.Step.make_ctx p)
  in
  Cobegin_explore.Space.final_store_reprs r
  |> List.map
       (List.filter (fun ((l : Cobegin_semantics.Value.loc), _) ->
            l.Cobegin_semantics.Value.l_pid = []))
  |> List.sort_uniq compare

let apply_tests =
  [
    case "applying the transform parallelizes independent calls" (fun () ->
        (* four calls over four distinct blocks: no dependence anywhere,
           so every call becomes its own branch *)
        let src =
          "proc f(p) { *p = 1; } proc g(p) { *p = 2; } proc main() { var a \
           = malloc(1); var b = malloc(1); var c = malloc(1); var d = \
           malloc(1); cobegin { f(a); g(b); } { f(c); g(d); } coend; }"
        in
        let prog = parse src in
        let report = Pipeline.analyze prog in
        let par = Pipeline.parallelization report in
        let prog' = Parallelize.apply prog par in
        (* no delays: the two 2-call segments split into four branches *)
        let branches p =
          Cobegin_lang.Ast.fold_program
            (fun acc s ->
              match s.Cobegin_lang.Ast.kind with
              | Cobegin_lang.Ast.Scobegin bs -> max acc (List.length bs)
              | _ -> acc)
            0 p
        in
        check_int "four branches" 4 (branches prog');
        (* behaviour preserved: identical final stores, projected to the
           locations main created (callee locals carry branch pids that
           legitimately differ across the two structures) *)
        check_bool "same final stores" true
          (root_finals prog = root_finals prog'));
    case "applied programs keep labels unique and depend on their arguments"
      (fun () ->
        let prog =
          parse
            "proc f(p) { *p = 1; } proc g(p) { *p = 2; } proc main() { var \
             a = malloc(1); var b = malloc(1); var c = malloc(1); var d = \
             malloc(1); cobegin { f(a); g(b); } { f(c); g(d); } coend; }"
        in
        let par = Pipeline.parallelization (Pipeline.analyze prog) in
        let applied = Parallelize.apply prog par in
        let labels = Cobegin_lang.Ast.labels applied in
        check_int "distinct labels" (List.length labels)
          (List.length (List.sort_uniq compare labels));
        check_bool "two calls give equal programs" true
          (Parallelize.apply prog par = applied));
    case "delays block the split on fig8" (fun () ->
        let prog = parse Cobegin_models.Figures.fig8 in
        let report = Pipeline.analyze prog in
        let par = Pipeline.parallelization report in
        let prog' = Parallelize.apply prog par in
        (* both arcs are delays: the transformation is the identity on
           the branch structure *)
        let branches p =
          Cobegin_lang.Ast.fold_program
            (fun acc s ->
              match s.Cobegin_lang.Ast.kind with
              | Cobegin_lang.Ast.Scobegin bs -> max acc (List.length bs)
              | _ -> acc)
            0 p
        in
        check_int "still two branches" 2 (branches prog');
        check_bool "same final stores" true
          (root_finals prog = root_finals prog'));
    qtest ~count:20 "apply preserves final stores on generated programs"
      seed_gen
      (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 2;
            with_loops = false;
            with_locks = false;
          }
        in
        let prog = random_program ~cfg seed in
        let report = Pipeline.analyze prog in
        if not (Budget.is_complete report.Pipeline.status) then true
        else
          let par = Pipeline.parallelization report in
          let prog' = Parallelize.apply prog par in
          root_finals prog = root_finals prog');
  ]

let placement_tests =
  [
    case "example8: b1 shared, b2 local" (fun () ->
        let report = Pipeline.analyze (parse Cobegin_models.Figures.example8) in
        let heap_decisions =
          List.filter
            (fun (i : Cobegin_analysis.Lifetime.info) -> i.Cobegin_analysis.Lifetime.heap)
            report.Pipeline.lifetimes
        in
        let shared, local =
          List.partition
            (fun (i : Cobegin_analysis.Lifetime.info) ->
              i.Cobegin_analysis.Lifetime.placement
              = Cobegin_analysis.Lifetime.Shared)
            heap_decisions
        in
        check_int "one shared (b1)" 1 (List.length shared);
        check_int "one local (b2)" 1 (List.length local));
    case "everything local in a sequential program" (fun () ->
        let report =
          Pipeline.analyze
            (parse "proc main() { var x = 0; var p = malloc(1); *p = x; }")
        in
        check_int "nothing shared" 0
          (List.length (Placement.shared report.Pipeline.placements)));
  ]

let ctgc_tests =
  [
    case "branch-local heap cell reclaimed at its join" (fun () ->
        let report = Pipeline.analyze (parse Cobegin_models.Figures.example8) in
        let reclaimed = Ctgc.statically_reclaimed report.Pipeline.gc_plan in
        check_bool "b2 is reclaimed before program exit" true
          (List.exists
             (fun e ->
               match e.Ctgc.at with Ctgc.Branch_exit _ -> true | _ -> false)
             reclaimed));
    case "callee-local heap cell reclaimed at procedure exit" (fun () ->
        let src =
          "proc f() { var p = malloc(1); *p = 1; var t = *p; return t; } \
           proc main() { var x = f(); }"
        in
        let report = Pipeline.analyze (parse src) in
        check_bool "reclaim at exit of f" true
          (List.exists
             (fun e -> e.Ctgc.at = Ctgc.Proc_exit "f" && e.Ctgc.heap)
             report.Pipeline.gc_plan));
    case "escaping cell is not statically reclaimed in the callee" (fun () ->
        let src =
          "proc mk() { var p = malloc(1); return p; } proc main() { var q = \
           mk(); var x = *q; }"
        in
        let report = Pipeline.analyze (parse src) in
        check_bool "not reclaimed in mk" true
          (not
             (List.exists
                (fun e -> e.Ctgc.at = Ctgc.Proc_exit "mk" && e.Ctgc.heap)
                report.Pipeline.gc_plan)));
  ]

let suite = parallelize_tests @ apply_tests @ placement_tests @ ctgc_tests
