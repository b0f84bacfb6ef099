(* Concrete semantics: evaluation, runtime errors, schedulers,
   determinism of locations, process structure. *)

open Cobegin_semantics
open Helpers

let run_left src = Exec.run_leftmost (ctx_of src)

let final_int_of run name =
  (* read variable [name] from the final store via declaration order is
     brittle; instead re-run and track through the trace — here we only
     need simple single-var programs, so take the store binding whose
     value we assert on. *)
  match run.Exec.outcome with
  | Exec.Terminated c ->
      let bindings = Store.bindings c.Config.store in
      List.filter_map
        (fun (_, v) -> match v with Value.Vint n -> Some n | _ -> None)
        bindings
      |> fun l -> (name, l)
  | _ -> (name, [])

let eval_tests =
  [
    case "arithmetic and comparison" (fun () ->
        let r = run_left "proc main() { var x = (3 + 4) * 2 - 6 / 3; assert(x == 12); }" in
        check_bool "terminates" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "strict boolean operators" (fun () ->
        let r =
          run_left
            "proc main() { var b = true && false || true; assert(b); }"
        in
        check_bool "terminates" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "division by zero is a runtime error" (fun () ->
        match (run_left "proc main() { var x = 1 / 0; }").Exec.outcome with
        | Exec.Error (msg, _) ->
            check_bool "message" true
              (String.length msg > 0
              && String.sub msg 0 8 = "division")
        | _ -> Alcotest.fail "expected error");
    case "type confusion is a runtime error" (fun () ->
        match (run_left "proc main() { var x = 1 + true; }").Exec.outcome with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "deref of integer is a runtime error" (fun () ->
        match (run_left "proc main() { var x = 0; var y = *x; }").Exec.outcome with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "condition must be boolean" (fun () ->
        match (run_left "proc main() { if (1) { } }").Exec.outcome with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "assert failure reports its label" (fun () ->
        match (run_left "proc main() { assert(false); }").Exec.outcome with
        | Exec.Error (msg, _) ->
            check_bool "mentions statement" true
              (String.length msg > 0)
        | _ -> Alcotest.fail "expected error");
  ]

let memory_tests =
  [
    case "malloc cells are zero-initialized" (fun () ->
        let r =
          run_left
            "proc main() { var p = malloc(3); assert(*p == 0); assert(*(p + \
             2) == 0); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "pointer arithmetic stays in the block" (fun () ->
        let r =
          run_left
            "proc main() { var p = malloc(2); *(p + 1) = 9; var x = *(p + \
             1); assert(x == 9); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "out-of-bounds deref errs" (fun () ->
        match
          (run_left "proc main() { var p = malloc(1); var x = *(p + 3); }")
            .Exec.outcome
        with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "use after free errs" (fun () ->
        match
          (run_left
             "proc main() { var p = malloc(1); free(p); var x = *p; }")
            .Exec.outcome
        with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "double free errs" (fun () ->
        match
          (run_left "proc main() { var p = malloc(1); free(p); free(p); }")
            .Exec.outcome
        with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "free of interior pointer errs" (fun () ->
        match
          (run_left "proc main() { var p = malloc(2); free(p + 1); }")
            .Exec.outcome
        with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "address-of a local and write through it" (fun () ->
        let r =
          run_left
            "proc main() { var x = 1; var p = &x; *p = 5; assert(x == 5); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
  ]

let proc_tests =
  [
    case "call with result and return" (fun () ->
        let r =
          run_left
            "proc add(a, b) { return a + b; } proc main() { var x = add(2, \
             3); assert(x == 5); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "fall-through return yields 0" (fun () ->
        let r =
          run_left
            "proc f() { skip; } proc main() { var x = 99; x = f(); assert(x \
             == 0); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "recursion" (fun () ->
        let r =
          run_left
            "proc fact(n) { if (n <= 1) { return 1; } var r = fact(n - 1); \
             return n * r; } proc main() { var x = fact(5); assert(x == 120); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "first-class procedure values" (fun () ->
        let r = run_left Cobegin_models.Figures.firstclass in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "by-value parameters do not alias" (fun () ->
        let r =
          run_left
            "proc f(a) { a = 99; } proc main() { var x = 1; f(x); assert(x \
             == 1); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "by-reference through pointers does alias" (fun () ->
        let r =
          run_left
            "proc f(p) { *p = 99; } proc main() { var x = 1; f(&x); \
             assert(x == 99); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "return inside cobegin branch errs" (fun () ->
        match
          (run_left "proc main() { cobegin { return; } coend; }").Exec.outcome
        with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    case "arity mismatch at runtime via function value" (fun () ->
        match
          (run_left "proc f(a) { } proc main() { var g = f; (g)(); }")
            .Exec.outcome
        with
        | Exec.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
  ]

let concurrency_tests =
  [
    case "join waits for all branches" (fun () ->
        let r =
          run_left
            "proc main() { var x = 0; cobegin { x = x + 1; } { x = x + 1; } \
             coend; assert(x == 2); }"
        in
        (* leftmost scheduling serializes the branches *)
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "nested cobegin" (fun () ->
        let r =
          run_left
            "proc main() { var x = 0; cobegin { cobegin { x = x + 1; } { x \
             = x + 1; } coend; } { x = x + 1; } coend; assert(x == 3); }"
        in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "await blocks until condition" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.busywait in
        let r = Exec.run_round_robin ctx in
        check_bool "ok" true
          (match r.Exec.outcome with Exec.Terminated _ -> true | _ -> false));
    case "lock provides mutual exclusion" (fun () ->
        (* all schedules end with count = 2 *)
        let ctx = ctx_of Cobegin_models.Figures.mutex in
        List.iter
          (fun seed ->
            match (Exec.run_random ctx ~seed).Exec.outcome with
            | Exec.Terminated _ -> ()
            | Exec.Error (m, _) -> Alcotest.fail ("error: " ^ m)
            | Exec.Deadlock _ -> Alcotest.fail "deadlock"
            | Exec.Out_of_fuel _ -> Alcotest.fail "fuel")
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
    case "deadlock detected by executor" (fun () ->
        let src =
          "proc main() { var a = 0; var b = 0; cobegin { lock(a); await(b \
           == 1); } { lock(b); await(a == 0); lock(a); } coend; }"
        in
        let found = ref false in
        List.iter
          (fun seed ->
            match (Exec.run_random (ctx_of src) ~seed).Exec.outcome with
            | Exec.Deadlock _ -> found := true
            | _ -> ())
          (List.init 30 (fun i -> i + 1));
        check_bool "some schedule deadlocks" true !found);
  ]

(* Locations are deterministic per logical state: different interleavings
   of independent threads reach structurally equal final configurations. *)
let determinism_tests =
  [
    qtest ~count:20 "random schedules agree on the set of explored finals"
      QCheck2.Gen.(pair seed_gen (int_range 1 1000))
      (fun (pseed, sseed) ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 2;
            with_loops = false;
          }
        in
        let prog = random_program ~cfg pseed in
        let ctx = Step.make_ctx prog in
        match (Exec.run_random ctx ~seed:sseed).Exec.outcome with
        | Exec.Terminated c ->
            (* the executor's final store must be among the explored ones *)
            let full = Cobegin_explore.Space.full ~max_configs:30_000 ctx in
            let reprs = Cobegin_explore.Space.final_store_reprs full in
            List.mem (Store.repr c.Config.store) reprs
        | Exec.Error _ | Exec.Deadlock _ -> true
        | Exec.Out_of_fuel _ -> true);
  ]

(* [Value.compare_value] must be a total order consistent with
   [equal_value] — the visited sets, digest tables and store reprs all
   lean on it across every constructor pair. *)
let value_order_tests =
  let open QCheck2.Gen in
  let loc_gen =
    map3
      (fun pid site off -> { Value.l_pid = pid; l_site = site; l_seq = 0; l_off = off })
      (oneofl [ []; [ (1, 0) ]; [ (1, 1) ]; [ (1, 0); (2, 1) ] ])
      (int_range 0 3) (int_range 0 3)
  in
  let value_gen =
    oneof
      [
        map (fun n -> Value.Vint n) small_int;
        map (fun b -> Value.Vbool b) bool;
        map (fun l -> Value.Vloc l) loc_gen;
        map (fun f -> Value.Vfun f) (oneofl [ "f"; "g"; "main" ]);
      ]
  in
  let sign n = compare n 0 in
  [
    qtest ~count:200 "compare_value is reflexive" value_gen (fun v ->
        Value.compare_value v v = 0);
    qtest ~count:200 "compare_value is antisymmetric" (pair value_gen value_gen)
      (fun (a, b) ->
        sign (Value.compare_value a b) = -sign (Value.compare_value b a));
    qtest ~count:500 "compare_value is transitive"
      (triple value_gen value_gen value_gen) (fun (a, b, c) ->
        (not
           (Value.compare_value a b <= 0 && Value.compare_value b c <= 0))
        || Value.compare_value a c <= 0);
    qtest ~count:200 "compare_value zero iff equal_value"
      (pair value_gen value_gen) (fun (a, b) ->
        Value.compare_value a b = 0 = Value.equal_value a b);
    qtest ~count:300 "compare_pid orders pids like the generic compare"
      (let pid =
         list_size (int_range 0 3) (pair (int_range 0 2) (int_range 0 2))
       in
       pair pid pid)
      (fun (a, b) ->
        sign (Value.compare_pid a b) = sign (compare a b)
        && Value.compare_pid a a = 0);
  ]

(* [Step.fire] settles only the process it fired and the children a
   cobegin spawned; every configuration it returns must still be in
   normal form: normalizing it again changes nothing, down to the
   physical processes. *)
let normalized c =
  let n = Step.normalize c in
  Config.repr n = Config.repr c
  && Config.PidMap.equal ( == ) n.Config.procs c.Config.procs

let all_normalized ?model ?cap prog =
  let ok = ref true in
  iter_transitions ?model ?cap prog (fun _ _ c' ->
      if not (normalized c') then ok := false);
  !ok

(* The configuration where the root's next statement is its cobegin,
   and the root. *)
let rec before_fork ctx c =
  match Config.processes c with
  | [ p ] -> (
      match Proc.next_stmt p with
      | Some { Cobegin_lang.Ast.kind = Cobegin_lang.Ast.Scobegin _; _ } ->
          (c, p)
      | _ -> before_fork ctx (fst (Step.fire ctx c p)))
  | _ -> Alcotest.fail "no cobegin on the root's path"

(* The configuration just after the fork, and its first branch. *)
let forked ctx =
  let c, root = before_fork ctx (Step.init ctx) in
  let c = fst (Step.fire ctx c root) in
  match
    List.find_opt (fun (p : Proc.t) -> p.Proc.pid <> []) (Config.processes c)
  with
  | Some p -> (c, p)
  | None -> Alcotest.fail "no branch after the fork"

let two_writers =
  "proc main() { var x = 0; cobegin { x = 1; } { x = 2; } coend; }"

let normal_form_tests =
  [
    case "fire returns normalized configurations (corpus, sc/tso/pso)"
      (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun model ->
                check_bool
                  (Printf.sprintf "%s under %s" name (Step.model_name model))
                  true
                  (all_normalized ~model (parse src)))
              [ Step.Sc; Step.Tso; Step.Pso ])
          Cobegin_models.Corpus.all);
    qtest ~count:30 "fire returns normalized configurations (random)" seed_gen
      (fun seed -> all_normalized ~cap:1500 (random_program seed));
    case "a cobegin unfolds its block branches and drops an empty one"
      (fun () ->
        let ctx =
          ctx_of
            "proc main() { var x = 0; cobegin { { x = 1; } } { } { var y = \
             2; x = y; } coend; }"
        in
        let c, root = before_fork ctx (Step.init ctx) in
        let c' = fst (Step.fire ctx c root) in
        check_bool "normalized" true (normalized c');
        check_int "root and two live branches" 3 (Config.num_procs c');
        List.iter
          (fun (p : Proc.t) ->
            check_bool "a branch starts at a statement, not a block" true
              (match Proc.next_stmt p with
              | Some { Cobegin_lang.Ast.kind = Cobegin_lang.Ast.Sblock _; _ }
                ->
                  false
              | Some _ -> true
              | None -> false))
          (List.filter
             (fun (p : Proc.t) -> p.Proc.pid <> [])
             (Config.processes c')));
    case "a branch that terminates with an empty buffer is removed"
      (fun () ->
        let ctx = ctx_of two_writers in
        let c, p = forked ctx in
        let c' = fst (Step.fire ctx c p) in
        check_bool "normalized" true (normalized c');
        check_bool "removed" true (Config.find_proc p.Proc.pid c' = None));
    case "a branch that terminates with a pending TSO buffer is kept"
      (fun () ->
        let ctx = Step.make_ctx ~model:Step.Tso (parse two_writers) in
        let c, p = forked ctx in
        let c' = fst (Step.fire ctx c p) in
        check_bool "normalized" true (normalized c');
        match Config.find_proc p.Proc.pid c' with
        | None -> Alcotest.fail "a branch with a pending write was removed"
        | Some p' ->
            check_bool "its stack is empty" true (p'.Proc.stack = []);
            check_int "one pending write" 1 (List.length p'.Proc.buf);
            let flush =
              List.find
                (function
                  | Step.Aflush (q, _) -> q.Proc.pid = p'.Proc.pid
                  | Step.Arun _ -> false)
                (Step.enabled_actions ctx c')
            in
            let flushed = fst (Step.fire_action ctx c' flush) in
            check_bool "flushed: normalized" true (normalized flushed);
            check_bool "flushed: removed" true
              (Config.find_proc p.Proc.pid flushed = None));
  ]

let suite =
  eval_tests @ memory_tests @ proc_tests @ concurrency_tests
  @ determinism_tests @ value_order_tests @ normal_form_tests

let _ = final_int_of
