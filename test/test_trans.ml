(* Program transforms: virtual coarsening (Observation 5) and inlining. *)

open Cobegin_lang
open Cobegin_trans
open Helpers

let count_atomics prog =
  Ast.fold_program
    (fun n s -> match s.Ast.kind with Ast.Satomic _ -> n + 1 | _ -> n)
    0 prog

let critical_tests =
  [
    case "shared conflicting names are found" (fun () ->
        let conf = Critical.of_program (parse Cobegin_models.Figures.fig2) in
        check_bool "a is critical" true
          (Ast.StringSet.mem "a" conf.Critical.names);
        check_bool "b is critical" true
          (Ast.StringSet.mem "b" conf.Critical.names);
        (* x and y are written by one branch only and read nowhere else *)
        check_bool "x is not" false (Ast.StringSet.mem "x" conf.Critical.names));
    case "branch-local names never conflict" (fun () ->
        let conf =
          Critical.of_program
            (parse
               "proc main() { cobegin { var t = 1; t = t + 1; } { var t = \
                2; t = t + 2; } coend; }")
        in
        check_bool "t local to each branch" false
          (Ast.StringSet.mem "t" conf.Critical.names));
    case "memory conflicts through pointers" (fun () ->
        let conf = Critical.of_program (parse Cobegin_models.Figures.example8) in
        check_bool "mem conflict" true conf.Critical.mem);
    case "calls contribute their memory effects" (fun () ->
        let conf = Critical.of_program (parse Cobegin_models.Figures.fig8) in
        check_bool "mem conflict through calls" true conf.Critical.mem);
    case "critical count of statements" (fun () ->
        let conf =
          {
            Critical.names = Ast.StringSet.of_list [ "s" ];
            Critical.mem = false;
          }
        in
        let stmt_of src =
          match (List.hd (parse src).Ast.procs).Ast.body.Ast.kind with
          | Ast.Sblock ss -> List.nth ss 1
          | _ -> assert false
        in
        check_int "local assign" 0
          (Critical.stmt_critical conf
             (stmt_of "proc main() { var t = 0; t = 1; var s = 0; }"));
        check_int "critical write" 1
          (Critical.stmt_critical conf
             (stmt_of "proc main() { var s = 0; s = 1; }"));
        check_int "critical read+write" 2
          (Critical.stmt_critical conf
             (stmt_of "proc main() { var s = 0; s = s + 1; }")));
  ]

let coarsen_tests =
  [
    case "local runs are grouped" (fun () ->
        let prog = parse Cobegin_models.Figures.fig5 in
        let coarse = Coarsen.program prog in
        check_bool "atomics introduced" true (count_atomics coarse > 0));
    case "coarsening reduces the state space" (fun () ->
        let prog = parse Cobegin_models.Figures.fig5 in
        let ctx f = Cobegin_semantics.Step.make_ctx f in
        let before = Cobegin_explore.Space.full (ctx prog) in
        let after = Cobegin_explore.Space.full (ctx (Coarsen.program prog)) in
        check_bool "smaller" true
          (after.Cobegin_explore.Space.stats
             .Cobegin_explore.Space.configurations
          < before.Cobegin_explore.Space.stats
              .Cobegin_explore.Space.configurations));
    case "runs with two critical references are split" (fun () ->
        let prog =
          parse
            "proc main() { var s = 0; cobegin { s = 1; s = 2; } { s = 3; } \
             coend; }"
        in
        let coarse = Coarsen.program prog in
        (* s = 1; s = 2 are two critical writes: must not merge *)
        check_int "no atomics" 0 (count_atomics coarse));
    qtest ~count:25 "coarsening preserves final stores" seed_gen (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 3;
            with_procs = false;
          }
        in
        let prog = random_program ~cfg seed in
        let coarse = Coarsen.program prog in
        let ctx p = Cobegin_semantics.Step.make_ctx p in
        let before = Cobegin_explore.Space.full ~max_configs:20_000 (ctx prog) in
        let after =
          Cobegin_explore.Space.full ~max_configs:20_000 (ctx coarse)
        in
        if
          not
            (Budget.is_complete before.Cobegin_explore.Space.status
            && Budget.is_complete after.Cobegin_explore.Space.status)
        then true
        else final_reprs before = final_reprs after);
    qtest ~count:25 "coarsening never grows the space" seed_gen (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 3;
            with_procs = false;
          }
        in
        let prog = random_program ~cfg seed in
        let coarse = Coarsen.program prog in
        let ctx p = Cobegin_semantics.Step.make_ctx p in
        let before = Cobegin_explore.Space.full ~max_configs:20_000 (ctx prog) in
        let after =
          Cobegin_explore.Space.full ~max_configs:20_000 (ctx coarse)
        in
        if
          not
            (Budget.is_complete before.Cobegin_explore.Space.status
            && Budget.is_complete after.Cobegin_explore.Space.status)
        then true
        else
          after.Cobegin_explore.Space.stats
            .Cobegin_explore.Space.configurations
          <= before.Cobegin_explore.Space.stats
               .Cobegin_explore.Space.configurations);
  ]

let inline_tests =
  [
    case "inlining eliminates direct calls" (fun () ->
        let prog =
          parse
            "proc add(a, b) { return a + b; } proc main() { var x = add(1, \
             2); assert(x == 3); }"
        in
        let inlined = Inline.program prog in
        let calls =
          Ast.fold_program
            (fun n s -> match s.Ast.kind with Ast.Scall _ -> n + 1 | _ -> n)
            0 inlined
        in
        check_int "no calls left" 0 calls);
    case "recursive procedures are kept" (fun () ->
        let prog =
          parse
            "proc f(n) { if (n <= 0) { return 0; } var r = f(n - 1); \
             return r; } proc main() { var x = f(3); }"
        in
        let inlined = Inline.program prog in
        let calls =
          Ast.fold_program
            (fun n s -> match s.Ast.kind with Ast.Scall _ -> n + 1 | _ -> n)
            0 inlined
        in
        check_bool "calls remain" true (calls > 0));
    case "inlining preserves behaviour" (fun () ->
        let src =
          "proc sq(a) { return a * a; } proc main() { var s = 0; cobegin { \
           s = sq(3); } { s = sq(4); } coend; }"
        in
        List.iter
          (fun (name, src) ->
            let prog = parse src in
            let inlined = Inline.program prog in
            let ctx p = Cobegin_semantics.Step.make_ctx p in
            let before = Cobegin_explore.Space.full (ctx prog) in
            let after = Cobegin_explore.Space.full (ctx inlined) in
            (* final stores differ structurally (different locations) but
               the outcome counts must match *)
            let counts (r : Cobegin_explore.Space.result) =
              let s = r.Cobegin_explore.Space.stats in
              Cobegin_explore.Space.[ s.finals; s.deadlocks; s.errors ]
            in
            Alcotest.(check (list int))
              (name ^ ": finals, deadlocks, errors")
              (counts before) (counts after))
          (("sq", src) :: regression_programs ()));
    case "no capture: locals are freshened" (fun () ->
        let prog =
          parse
            "proc f(x) { var t = x + 1; return t; } proc main() { var t = \
             10; var r = f(t); assert(r == 11); assert(t == 10); }"
        in
        let inlined = Inline.program prog in
        match
          (Cobegin_semantics.Exec.run_leftmost
             (Cobegin_semantics.Step.make_ctx inlined))
            .Cobegin_semantics.Exec.outcome
        with
        | Cobegin_semantics.Exec.Terminated _ -> ()
        | _ -> Alcotest.fail "inlined program misbehaves");
  ]

(* The regression programs: calls through a name a variable shadows,
   and a pointer write to an address-taken variable another branch
   reads by name. *)
let regression_tests =
  [
    case "coarsening keeps full's final stores on the regression programs"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let prog = parse src in
            let conf = Critical.of_program prog in
            let critical x = Ast.StringSet.mem x conf.Critical.names in
            (match name with
            | "shadowed_call.cob" | "shadowed_call_coarsen.cob" ->
                check_bool (name ^ ": f is critical") true (critical "f")
            | "addr_taken_coarsen.cob" ->
                check_bool (name ^ ": x is critical") true (critical "x");
                check_bool (name ^ ": memory is critical") true
                  conf.Critical.mem
            | _ -> ());
            let ctx p = Cobegin_semantics.Step.make_ctx p in
            let before = Cobegin_explore.Space.full (ctx prog) in
            let after =
              Cobegin_explore.Space.full (ctx (Coarsen.program prog))
            in
            check_bool (name ^ ": same final stores") true
              (final_reprs before = final_reprs after))
          (regression_programs ()));
  ]

let suite = critical_tests @ coarsen_tests @ inline_tests @ regression_tests
