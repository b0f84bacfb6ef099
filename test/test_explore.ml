(* State-space exploration: counts on the paper figures, equivalence of
   full and stubborn strategies, witness traces. *)

open Cobegin_explore
open Helpers

let figures = Cobegin_models.Figures.all_named

let count_tests =
  [
    case "fig2: three final outcomes, (0,0) impossible" (fun () ->
        let r = explore_full Cobegin_models.Figures.fig2 in
        check_int "finals" 3 r.Space.stats.Space.finals;
        check_int "deadlocks" 0 r.Space.stats.Space.deadlocks;
        check_int "errors" 0 r.Space.stats.Space.errors);
    case "fig5: stubborn sets shrink the space" (fun () ->
        let full = explore_full Cobegin_models.Figures.fig5 in
        let stub = explore_stubborn Cobegin_models.Figures.fig5 in
        check_bool "reduction" true
          (stub.Space.stats.Space.configurations
          < full.Space.stats.Space.configurations);
        check_bool "same finals" true (final_reprs full = final_reprs stub));
    case "fig3: two concrete result-configurations (the racing writes)"
      (fun () ->
        let r = explore_full Cobegin_models.Figures.fig3 in
        check_int "finals" 2 r.Space.stats.Space.finals);
    case "busywait: no errors under any interleaving" (fun () ->
        let r = explore_full Cobegin_models.Figures.busywait in
        check_int "errors" 0 r.Space.stats.Space.errors;
        check_int "deadlocks" 0 r.Space.stats.Space.deadlocks);
    case "mutex: assertion holds in all interleavings" (fun () ->
        let r = explore_full Cobegin_models.Figures.mutex in
        check_int "errors" 0 r.Space.stats.Space.errors;
        check_int "finals" 1 r.Space.stats.Space.finals);
    case "racy counter: a lost update is reachable" (fun () ->
        let r = explore_full Cobegin_models.Figures.mutex_racy in
        (* finals: count ∈ {1, 2} -> at least 2 distinct final stores *)
        check_bool "several outcomes" true (r.Space.stats.Space.finals >= 2));
    case "budget exhaustion truncates instead of raising" (fun () ->
        let r = explore_full ~max_configs:3 Cobegin_models.Figures.fig5 in
        check_bool "truncated" false (Budget.is_complete r.Space.status);
        check_bool "partial stats returned" true
          (r.Space.stats.Space.configurations > 0
          && r.Space.stats.Space.configurations <= 3));
    case "truncation stops the expansion mid-flight (pinned counts)"
      (fun () ->
        (* regression: the engine used to keep firing the remaining
           successors of the current expansion after the configuration
           guard tripped, inflating transitions and the event log past
           the stop.  Deterministic BFS order makes the exact counts at
           the truncation point stable. *)
        let r = explore_full ~max_configs:5 Cobegin_models.Figures.fig5 in
        check_bool "truncated" true
          (r.Space.status = Budget.Truncated (Budget.Configs 5));
        check_int "configurations pinned at the budget" 5
          r.Space.stats.Space.configurations;
        check_int "transitions stop with the guard" 4
          r.Space.stats.Space.transitions);
  ]

let all_figures_agree =
  [
    case "stubborn = full on all figures (finals + deadlocks)" (fun () ->
        List.iter
          (fun (name, src) ->
            let full = explore_full src in
            let stub = explore_stubborn src in
            check_bool (name ^ " finals") true
              (final_reprs full = final_reprs stub);
            check_int
              (name ^ " deadlocks")
              full.Space.stats.Space.deadlocks
              stub.Space.stats.Space.deadlocks;
            check_bool (name ^ " no bigger") true
              (stub.Space.stats.Space.configurations
              <= full.Space.stats.Space.configurations))
          (figures @ regression_programs ()));
  ]

let gen_cfg =
  {
    Cobegin_models.Generator.default_cfg with
    num_branches = 2;
    stmts_per_branch = 3;
  }

let property_tests =
  [
    qtest ~count:25 "stubborn finds exactly the full final stores" seed_gen
      (fun seed ->
        let prog = random_program ~cfg:gen_cfg seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        let full = Space.full ~max_configs:20_000 ctx in
        let stub = Stubborn.explore ~max_configs:20_000 ctx in
        if
          not
            (Budget.is_complete full.Space.status
            && Budget.is_complete stub.Space.status)
        then true
        else
          final_reprs full = final_reprs stub
          && full.Space.stats.Space.deadlocks
             = stub.Space.stats.Space.deadlocks);
    qtest ~count:25 "stubborn never explores more configurations" seed_gen
      (fun seed ->
        let prog = random_program ~cfg:gen_cfg seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        let full = Space.full ~max_configs:20_000 ctx in
        let stub = Stubborn.explore ~max_configs:20_000 ctx in
        if
          not
            (Budget.is_complete full.Space.status
            && Budget.is_complete stub.Space.status)
        then true
        else
          stub.Space.stats.Space.configurations
          <= full.Space.stats.Space.configurations);
    qtest ~count:20 "three-branch programs also agree"
      seed_gen
      (fun seed ->
        let cfg =
          {
            gen_cfg with
            Cobegin_models.Generator.num_branches = 3;
            stmts_per_branch = 2;
          }
        in
        let prog = random_program ~cfg seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        let full = Space.full ~max_configs:20_000 ctx in
        let stub = Stubborn.explore ~max_configs:20_000 ctx in
        if
          not
            (Budget.is_complete full.Space.status
            && Budget.is_complete stub.Space.status)
        then true
        else final_reprs full = final_reprs stub);
  ]

(* The directed persistent sets (docs/INTERNALS.md §1).  The oracle is
   the undirected rule they replaced: i and j are joined when either
   one's next action conflicts with the other's future, a member waiting
   at a join takes its live children in, and the join-closed component
   with the fewest enabled processes fires.  [undirected mctx ctx c] is
   each live process's join-closed component, as pids. *)
let undirected mctx ctx c =
  let module Sem = Cobegin_semantics in
  let procs = Array.of_list (Sem.Config.processes c) in
  let n = Array.length procs in
  let store = c.Sem.Config.store in
  let fp = Array.map (Sem.Step.action_footprint ctx c) procs in
  let fut = Array.map (Mayaccess.of_process mctx) procs in
  let edge i j =
    i <> j
    && (Mayaccess.conflicts_footprint store fp.(i) fut.(j)
       || Mayaccess.conflicts_footprint store fp.(j) fut.(i))
  in
  let component seed =
    let in_set = Array.make n false in
    let rec add i =
      if not in_set.(i) then begin
        in_set.(i) <- true;
        for j = 0 to n - 1 do
          if edge i j then add j
        done;
        match procs.(i).Sem.Proc.stack with
        | Sem.Proc.Ijoin { children; _ } :: _ ->
            Array.iteri
              (fun j q -> if List.mem q.Sem.Proc.pid children then add j)
              procs
        | _ -> ()
      end
    in
    add seed;
    List.filteri (fun j _ -> in_set.(j)) (Array.to_list procs)
    |> List.map (fun p -> p.Sem.Proc.pid)
  in
  List.init n (fun i -> (procs.(i).Sem.Proc.pid, component i))

(* At every configuration the full engine reaches, the failures (empty
   when all hold) of: each enabled seed's directed closure lies inside
   its undirected component; the chosen set is the enabled part of the
   closure with the fewest enabled members, the lowest seed winning a
   tie; and it fires no more processes than the oracle would. *)
let per_state_failures ctx =
  let module Sem = Cobegin_semantics in
  let mctx = Mayaccess.make_ctx ctx.Sem.Step.prog in
  let failures = ref [] in
  let pid p = p.Sem.Proc.pid in
  let visit c () actions =
    let seeds =
      List.filter_map
        (function Sem.Step.Arun p -> Some p | Sem.Step.Aflush _ -> None)
        actions
    in
    if seeds <> [] then begin
      let enabled = List.map pid seeds in
      let enabled_in s =
        List.sort compare (List.filter (fun q -> List.mem q enabled) s)
      in
      let components = undirected mctx ctx c in
      let closures =
        List.map
          (fun p -> List.map pid (Stubborn.closure mctx ctx c p))
          seeds
      in
      let fail what =
        failures :=
          Format.asprintf "%s at %a" what Sem.Config.pp c :: !failures
      in
      List.iter2
        (fun seed closure ->
          let component = List.assoc seed components in
          if not (List.for_all (fun q -> List.mem q component) closure) then
            fail "closure outside its component")
        enabled closures;
      let fewest sets =
        List.fold_left
          (fun best s ->
            match best with
            | Some b when List.length b <= List.length s -> best
            | _ -> Some s)
          None
          (List.map enabled_in sets)
        |> Option.get
      in
      let chosen =
        List.map Sem.Step.action_pid
          (Stubborn.choose_expansion mctx ctx c actions)
      in
      if List.sort compare chosen <> fewest closures then
        fail "not the smallest closure";
      if
        List.length chosen
        > List.length
            (fewest (List.map (fun seed -> List.assoc seed components) enabled))
      then fail "fires more than the undirected rule"
    end
  in
  ignore
    (Space.generate ~visit ~site:"space" ~admit:Space.no_revisits
       ~expand:Space.all_actions ctx (Space.start ctx ()));
  !failures

let summary_equal (a : Mayaccess.t) (b : Mayaccess.t) =
  let module LS = Cobegin_semantics.Value.LocSet in
  LS.equal a.Mayaccess.freads b.Mayaccess.freads
  && LS.equal a.Mayaccess.fwrites b.Mayaccess.fwrites
  && a.Mayaccess.mem_read = b.Mayaccess.mem_read
  && a.Mayaccess.mem_write = b.Mayaccess.mem_write

(* Generator programs with locks, loops and procedures. *)
let agreement_cfg =
  {
    Cobegin_models.Generator.default_cfg with
    num_branches = 3;
    stmts_per_branch = 2;
    with_locks = true;
    with_loops = true;
    with_procs = true;
  }

let directed_tests =
  let complete r = Budget.is_complete r.Space.status in
  let agrees full r =
    (not (complete r))
    || final_reprs r = final_reprs full
       && r.Space.stats.Space.deadlocks = full.Space.stats.Space.deadlocks
  in
  [
    qtest ~count:300
      "stubborn and sleep keep full's final stores and deadlocks" seed_gen
      (fun seed ->
        let ctx =
          Cobegin_semantics.Step.make_ctx
            (random_program ~cfg:agreement_cfg seed)
        in
        let full = Space.full ~max_configs:20_000 ctx in
        (not (complete full))
        || agrees full (Stubborn.explore ~max_configs:20_000 ctx)
           && agrees full (Sleep.explore ~max_configs:20_000 ctx));
    case "philosophers 2 to 5: stubborn and sleep find full's deadlocks"
      (fun () ->
        List.iter
          (fun n ->
            let ctx () = ctx_of (Cobegin_models.Philosophers.program n) in
            let full = Space.full (ctx ()) in
            List.iter
              (fun (engine, r) ->
                check_int
                  (Printf.sprintf "philosophers-%d %s" n engine)
                  full.Space.stats.Space.deadlocks
                  r.Space.stats.Space.deadlocks)
              [
                ("stubborn", Stubborn.explore (ctx ()));
                ("sleep", Sleep.explore (ctx ()));
              ])
          [ 2; 3; 4; 5 ]);
    case "a tie between closures goes to the lowest seed" (fun () ->
        (* two independent conflicting pairs: the closures of the first
           and of the third branch both have two enabled members *)
        let module Sem = Cobegin_semantics in
        let ctx =
          ctx_of
            "proc main() { var a = 0; var b = 0; cobegin { a = 1; } { a = \
             2; } { b = 1; } { b = 2; } coend; }"
        in
        let rec go c =
          match Sem.Step.enabled_actions ctx c with
          | [ a ] -> go (fst (Sem.Step.fire_action ctx c a))
          | actions -> (c, actions)
        in
        let c, actions = go (Sem.Step.init ctx) in
        let pids = List.map Sem.Step.action_pid in
        check_int "four branches enabled" 4 (List.length actions);
        let mctx = Mayaccess.make_ctx ctx.Sem.Step.prog in
        check_bool "the first pair, highest pid first" true
          (pids (Stubborn.choose_expansion mctx ctx c actions)
          = List.rev (pids (List.filteri (fun i _ -> i < 2) actions))));
    case "each closure lies in its component and fires no more (corpus)"
      (fun () ->
        List.iter
          (fun (name, src) ->
            match per_state_failures (ctx_of src) with
            | [] -> ()
            | f :: _ -> Alcotest.failf "%s: %s" name f)
          Cobegin_models.Corpus.all);
    qtest ~count:50
      "each closure lies in its component and fires no more (random)"
      seed_gen (fun seed ->
        per_state_failures
          (Cobegin_semantics.Step.make_ctx
             (random_program ~cfg:agreement_cfg seed))
        = []);
    case "the memoized summary equals a fresh one (corpus)" (fun () ->
        List.iter
          (fun (name, src) ->
            let ctx = ctx_of src in
            let prog = ctx.Cobegin_semantics.Step.prog in
            let mctx = Mayaccess.make_ctx prog in
            let visit c () _ =
              List.iter
                (fun p ->
                  if
                    not
                      (summary_equal
                         (Mayaccess.of_process mctx p)
                         (Mayaccess.of_process (Mayaccess.make_ctx prog) p))
                  then
                    Alcotest.failf "%s: %a" name Cobegin_semantics.Proc.pp p)
                (Cobegin_semantics.Config.processes c)
            in
            ignore
              (Space.generate ~visit ~site:"space" ~admit:Space.no_revisits
                 ~expand:Space.all_actions ctx (Space.start ctx ())))
          Cobegin_models.Corpus.all);
  ]

let composition_tests =
  [
    qtest ~count:20 "coarsening composed with sleep sets preserves finals"
      seed_gen
      (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 3;
            with_procs = false;
          }
        in
        let prog = random_program ~cfg seed in
        let coarse = Cobegin_trans.Coarsen.program prog in
        let ctx p = Cobegin_semantics.Step.make_ctx p in
        let plain = Space.full ~max_configs:20_000 (ctx prog) in
        let reduced = Sleep.explore ~max_configs:20_000 (ctx coarse) in
        if
          not
            (Budget.is_complete plain.Space.status
            && Budget.is_complete reduced.Space.status)
        then true
        else
          (* coarsening changes store granularity only at intermediate
             states; final stores must agree exactly *)
          final_reprs plain = final_reprs reduced);
  ]

let forktree_tests =
  [
    case "fork-join tree: nested dynamic parallelism through recursion"
      (fun () ->
        (* 2^d leaves atomically bump a shared heap counter; the final
           assert checks the total, so zero errors means every
           interleaving preserved the count *)
        List.iter
          (fun d ->
            let r = explore_full (Cobegin_models.Figures.forktree d) in
            check_int
              (Printf.sprintf "depth %d errors" d)
              0 r.Space.stats.Space.errors;
            check_int (Printf.sprintf "depth %d finals" d) 1
              r.Space.stats.Space.finals)
          [ 1; 2 ]);
    case "fork-join tree: stubborn agrees and reduces" (fun () ->
        let full = explore_full (Cobegin_models.Figures.forktree 2) in
        let stub = explore_stubborn (Cobegin_models.Figures.forktree 2) in
        check_bool "same finals" true (final_reprs full = final_reprs stub);
        check_bool "reduced" true
          (stub.Space.stats.Space.configurations
          < full.Space.stats.Space.configurations));
  ]

let trace_tests =
  [
    case "witness schedule for a final outcome" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.mutex_racy in
        (* find a schedule producing the lost update (count = 1) *)
        let w =
          Trace.final_witness ctx ~pred:(fun store ->
              List.exists
                (fun (_, v) -> v = Cobegin_semantics.Value.Vint 1)
                (Cobegin_semantics.Store.bindings store))
        in
        match w with
        | Some w -> check_bool "nonempty schedule" true (w.Trace.schedule <> [])
        | None -> Alcotest.fail "no witness for the lost update");
    case "error witness on failing assertion" (fun () ->
        let src =
          "proc main() { var x = 0; cobegin { x = 1; } { assert(x == 0); } \
           coend; }"
        in
        match Trace.error_witness (ctx_of src) with
        | Some _ -> ()
        | None -> Alcotest.fail "expected an error witness");
    case "no witness when the predicate is unreachable" (fun () ->
        let w =
          Trace.search (ctx_of Cobegin_models.Figures.fig3) ~pred:(fun _ ->
              false)
        in
        check_bool "none" true (w = None));
  ]

let sleep_tests =
  [
    case "sleep sets agree with full on every figure" (fun () ->
        List.iter
          (fun (name, src) ->
            let full = explore_full src in
            let slp = Sleep.explore (ctx_of src) in
            check_bool (name ^ " finals") true
              (final_reprs full = final_reprs slp);
            check_int
              (name ^ " deadlocks")
              full.Space.stats.Space.deadlocks
              slp.Space.stats.Space.deadlocks)
          (figures @ regression_programs ()));
    case "sleep sets cut transitions below stubborn on fig5" (fun () ->
        let stub = explore_stubborn Cobegin_models.Figures.fig5 in
        let slp = Sleep.explore (ctx_of Cobegin_models.Figures.fig5) in
        check_bool "fewer or equal transitions" true
          (slp.Space.stats.Space.transitions
          <= stub.Space.stats.Space.transitions));
    qtest ~count:25 "sleep sets find exactly the full final stores" seed_gen
      (fun seed ->
        let prog = random_program ~cfg:gen_cfg seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        let full = Space.full ~max_configs:20_000 ctx in
        let slp = Sleep.explore ~max_configs:20_000 ctx in
        if
          not
            (Budget.is_complete full.Space.status
            && Budget.is_complete slp.Space.status)
        then true
        else
          final_reprs full = final_reprs slp
          && full.Space.stats.Space.deadlocks
             = slp.Space.stats.Space.deadlocks);
  ]

let replay_tests =
  [
    case "replaying a witness reproduces its target" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.mutex_racy in
        match
          Trace.final_witness ctx ~pred:(fun store ->
              List.exists
                (fun (_, v) -> v = Cobegin_semantics.Value.Vint 1)
                (Cobegin_semantics.Store.bindings store))
        with
        | None -> Alcotest.fail "no witness"
        | Some w -> (
            match Cobegin_semantics.Replay.replay ctx w.Trace.schedule with
            | Cobegin_semantics.Replay.Replayed c ->
                check_bool "same store" true
                  (Cobegin_semantics.Store.equal
                     c.Cobegin_semantics.Config.store
                     w.Trace.target.Cobegin_semantics.Config.store)
            | Cobegin_semantics.Replay.Stuck (e, _) ->
                Alcotest.failf "stuck: %a"
                  Cobegin_semantics.Replay.pp_step_error e));
    case "replaying a bogus schedule reports the bad step" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.fig2 in
        match
          Cobegin_semantics.Replay.replay ctx
            [ Cobegin_semantics.Replay.Run [ (999, 0) ] ]
        with
        | Cobegin_semantics.Replay.Stuck
            (Cobegin_semantics.Replay.Pid_not_found (_, 0), _) ->
            ()
        | _ -> Alcotest.fail "expected Pid_not_found at step 0");
    qtest ~count:20 "every error witness replays to the error" seed_gen
      (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 2;
          }
        in
        let prog = random_program ~cfg seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        match Trace.error_witness ~max_configs:20_000 ctx with
        | None -> true
        | Some w -> (
            match Cobegin_semantics.Replay.replay ctx w.Trace.schedule with
            | Cobegin_semantics.Replay.Replayed c ->
                Cobegin_semantics.Config.is_error c
            | Cobegin_semantics.Replay.Stuck _ -> false));
  ]

(* Witnesses from the kernel: schedules are steps, so under TSO/PSO a
   witness names the flushes it needs. *)
let witness_tests =
  let module Sem = Cobegin_semantics in
  let models = Sem.Step.[ Sc; Tso; Pso ] in
  let replays_to ctx w ok =
    match Sem.Replay.replay ctx w.Trace.schedule with
    | Sem.Replay.Replayed c -> ok c
    | Sem.Replay.Stuck _ -> false
  in
  [
    case "an error witness exists exactly where full finds an error"
      (fun () ->
        let pairs = ref 0 in
        List.iter
          (fun (name, src) ->
            List.iter
              (fun model ->
                let ctx = Sem.Step.make_ctx ~model (parse src) in
                let errors = (Space.full ctx).Space.stats.Space.errors in
                let label = name ^ " " ^ Sem.Step.model_name model in
                match Trace.error_witness ctx with
                | None -> check_int (label ^ ": no witness, no error") 0 errors
                | Some w ->
                    incr pairs;
                    check_bool (label ^ ": full finds the error") true (errors > 0);
                    check_bool (label ^ ": replays to an error") true
                      (replays_to ctx w Sem.Config.is_error))
              models)
          Cobegin_models.Corpus.all;
        check_int "model and memory-model pairs with errors" 8 !pairs);
    case "peterson_broken under SC keeps its shortest witness" (fun () ->
        match
          Trace.error_witness (ctx_of Cobegin_models.Protocols.peterson_broken)
        with
        | None -> Alcotest.fail "no witness"
        | Some w ->
            check_int "steps" 14 (List.length w.Trace.schedule);
            check_int "explored" 66 w.Trace.explored);
    qtest ~count:100 "a final store under TSO/PSO has a replayable witness"
      seed_gen (fun seed ->
        let cfg =
          {
            Cobegin_models.Generator.default_cfg with
            num_branches = 2;
            stmts_per_branch = 3;
          }
        in
        let prog = random_program ~cfg seed in
        List.for_all
          (fun model ->
            let ctx = Sem.Step.make_ctx ~model prog in
            let full = Space.full ~max_configs:20_000 ctx in
            let stores = Space.final_store_reprs full in
            (not (Budget.is_complete full.Space.status))
            ||
            let store = List.nth stores (seed mod List.length stores) in
            match
              Trace.final_witness ctx ~pred:(fun s -> Sem.Store.repr s = store)
            with
            | None -> false
            | Some w ->
                replays_to ctx w (fun c ->
                    Sem.Config.all_terminated c
                    && Sem.Store.repr c.Sem.Config.store = store))
          Sem.Step.[ Tso; Pso ]);
    case "a flush that is not enabled is reported at its position" (fun () ->
        let ctx =
          Sem.Step.make_ctx ~model:Sem.Step.Tso
            (parse Cobegin_models.Figures.fig2)
        in
        let loc = { Sem.Value.l_pid = []; l_site = 0; l_seq = 0; l_off = 0 } in
        match
          Sem.Replay.replay ctx
            Sem.Replay.[ Run []; Flush ([], loc) ]
        with
        | Sem.Replay.Stuck (Sem.Replay.Pid_not_enabled ([], 1), _) -> ()
        | _ -> Alcotest.fail "expected Pid_not_enabled at step 1");
  ]

(* The premise of the stubborn reduction's soundness (docs/INTERNALS.md
   §1): at every configuration the full engine reaches under SC, every
   live process's may-access covers the existing locations its next
   action touches.  A read must be a future read or write, a write a
   future write, or either memory-covered while the summary may read
   (write) through a pointer.  The number of process-configurations
   where that fails. *)
let uncovered_next_actions ?max_configs prog =
  let module Sem = Cobegin_semantics in
  let module LS = Sem.Value.LocSet in
  let ctx = Sem.Step.make_ctx prog in
  let mctx = Mayaccess.make_ctx prog in
  let misses = ref 0 in
  let visit c () _ =
    let store = c.Sem.Config.store in
    List.iter
      (fun p ->
        let fp = Sem.Step.action_footprint ctx c p in
        let fut = Mayaccess.of_process mctx p in
        let covered ~by ~mem l =
          (not (Sem.Store.mem l store))
          || LS.mem l by
          || (mem && Sem.Store.is_mem_covered l store)
        in
        let reads_covered =
          LS.for_all
            (covered
               ~by:(LS.union fut.Mayaccess.freads fut.Mayaccess.fwrites)
               ~mem:fut.Mayaccess.mem_read)
            fp.Sem.Step.freads
        and writes_covered =
          LS.for_all
            (covered ~by:fut.Mayaccess.fwrites ~mem:fut.Mayaccess.mem_write)
            fp.Sem.Step.fwrites
        in
        if not (reads_covered && writes_covered) then incr misses)
      (Sem.Config.processes c)
  in
  ignore
    (Space.generate ?max_configs ~visit ~site:"space" ~admit:Space.no_revisits
       ~expand:Space.all_actions ctx (Space.start ctx ()));
  !misses

(* Continuation summaries (Mayaccess): the soundness ingredient of the
   stubborn reduction. *)
let mayaccess_tests =
  let module Sem = Cobegin_semantics in
  (* fire actions until [n] processes are enabled, then return them with
     the configuration *)
  let spawn src =
    let prog = Helpers.parse src in
    let ctx = Sem.Step.make_ctx prog in
    let rec go c =
      match Sem.Step.enabled_processes ctx c with
      | [ p ] ->
          let c', _ = Sem.Step.fire ctx c p in
          go c'
      | ps -> (ctx, prog, c, ps)
    in
    go (Sem.Step.init ctx)
  in
  [
    case "unresolved (fresh) names are conflict-free" (fun () ->
        (* branch 1 only touches a variable it has yet to declare: its
           future summary resolves no location at all, so it cannot
           conflict with the sibling's write *)
        let ctx, prog, c, ps =
          spawn
            "proc main() { var a = 0; cobegin { var x = 5; x = x + 1; } { a \
             = 2; } coend; }"
        in
        let mctx = Mayaccess.make_ctx prog in
        let fresh =
          List.find
            (fun p ->
              match Sem.Proc.next_stmt p with
              | Some { Cobegin_lang.Ast.kind = Cobegin_lang.Ast.Sdecl _; _ }
                ->
                  true
              | _ -> false)
            ps
        in
        let writer = List.find (fun p -> p != fresh) ps in
        let summary = Mayaccess.of_process mctx fresh in
        check_bool "no resolved reads" true
          (Sem.Value.LocSet.is_empty summary.Mayaccess.freads);
        check_bool "no resolved writes" true
          (Sem.Value.LocSet.is_empty summary.Mayaccess.fwrites);
        check_bool "no memory token" true
          ((not summary.Mayaccess.mem_read)
          && not summary.Mayaccess.mem_write);
        let fp = Sem.Step.action_footprint ctx c writer in
        check_bool "sibling's write does not conflict" false
          (Mayaccess.conflicts_footprint c.Sem.Config.store fp summary));
    case "pointer accesses concretize to address-taken variables" (fun () ->
        let ctx, prog, c, ps =
          spawn
            "proc main() { var a = 0; var p = &a; cobegin { *p = 1; } { var \
             t = a; t = t + 1; } coend; }"
        in
        let mctx = Mayaccess.make_ctx prog in
        let deref =
          List.find
            (fun p ->
              match Sem.Proc.next_stmt p with
              | Some
                  {
                    Cobegin_lang.Ast.kind =
                      Cobegin_lang.Ast.Sassign (Cobegin_lang.Ast.Lderef _, _);
                    _;
                  } ->
                  true
              | _ -> false)
            ps
        in
        let reader = List.find (fun p -> p != deref) ps in
        let summary = Mayaccess.of_process mctx deref in
        check_bool "memory token set" true summary.Mayaccess.mem_write;
        (* the sibling reads [a], whose address is taken: the memory
           token must cover that location *)
        let fp = Sem.Step.action_footprint ctx c reader in
        check_bool "read of the address-taken cell conflicts" true
          (Mayaccess.conflicts_footprint c.Sem.Config.store fp summary));
    case "a process's may-access covers its next action" (fun () ->
        let named =
          List.map
            (fun (name, src) -> (name, parse src))
            (Cobegin_models.Corpus.all @ regression_programs ())
        and generated =
          List.init 50 (fun i ->
              ( Printf.sprintf "generator seed %d" (i + 1),
                random_program (i + 1) ))
        in
        List.iter
          (fun (name, prog) ->
            check_int (name ^ " uncovered") 0
              (uncovered_next_actions ~max_configs:20_000 prog))
          (named @ generated));
  ]

(* The kernel's visitor contract: with an admission policy that never
   re-queues, it runs once per admitted configuration — popped, or
   drained from the frontier of a truncated run. *)
let visitor_tests =
  let visits ?max_configs expand src =
    let ctx = ctx_of src in
    let n = ref 0 in
    let r =
      Space.generate ?max_configs ~visit:(fun _ _ _ -> incr n) ~site:"space"
        ~admit:Space.no_revisits ~expand:(expand ctx) ctx
        (Space.start ctx ())
    in
    (!n, r)
  in
  let full _ = Space.all_actions in
  let stubborn ctx =
    let mctx = Mayaccess.make_ctx ctx.Cobegin_semantics.Step.prog in
    fun c () enabled ->
      List.map (fun a -> (a, ()))
        (Stubborn.choose_expansion mctx ctx c enabled)
  in
  [
    case "the visitor runs once per configuration, complete or truncated"
      (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun (strategy, expand) ->
                let n, r = visits expand src in
                let configs = r.Space.stats.Space.configurations in
                check_int (name ^ " " ^ strategy) configs n;
                List.iter
                  (fun max_configs ->
                    let n, r = visits ~max_configs expand src in
                    let label =
                      Printf.sprintf "%s %s at %d" name strategy max_configs
                    in
                    check_bool (label ^ " truncated") false
                      (Budget.is_complete r.Space.status);
                    check_int label r.Space.stats.Space.configurations n)
                  (List.filter (fun m -> m < configs) [ 2; 5; configs / 2 ]))
              [ ("full", full); ("stubborn", stubborn) ])
          Cobegin_models.Corpus.all);
  ]

(* The kernel keeps only distinct events and each exploration owns its
   pools.  The oracle of both: a naive BFS keyed by [Config.repr] that
   keeps every event of every transition in one list.  [successors]
   gives the engine's successors of a configuration under its
   annotation; the BFS stops where a configuration budget of
   [max_configs] stops the kernel — before a pop once the visited set
   is full, and at the first new successor it cannot admit (whose
   transition already fired). *)
module Repr_tbl = Hashtbl.Make (struct
  type t = Cobegin_semantics.Config.repr

  let equal = ( = )

  (* the generic hash stops after 10 meaningful nodes: widen it *)
  let hash = Hashtbl.hash_param 512 2048
end)

let naive_log ~max_configs ~successors ~admit ~init ctx =
  let module Step = Cobegin_semantics.Step in
  let module Config = Cobegin_semantics.Config in
  let module Hashtbl = Repr_tbl in
  let visited = Hashtbl.create 1024 and queue = Queue.create () in
  let c0 = Step.init ctx in
  Hashtbl.replace visited (Config.repr c0) init;
  Queue.add (c0, init) queue;
  let events = ref [] and stop = ref false in
  let offer (c', evs, a') =
    if not !stop then begin
      events := evs :: !events;
      let k = Config.repr c' in
      match Hashtbl.find_opt visited k with
      | Some recorded -> (
          match admit recorded a' with
          | None -> ()
          | Some merged ->
              Hashtbl.replace visited k merged;
              Queue.add (c', merged) queue)
      | None ->
          if Hashtbl.length visited >= max_configs then stop := true
          else begin
            Hashtbl.replace visited k a';
            Queue.add (c', a') queue
          end
    end
  in
  while (not !stop) && not (Queue.is_empty queue) do
    if Hashtbl.length visited >= max_configs then stop := true
    else
      let c, a = Queue.pop queue in
      if not (Config.is_error c || Config.all_terminated c) then
        List.iter offer (successors c a)
  done;
  ( Hashtbl.length visited,
    Cobegin_analysis.Event.of_concrete
      {
        Step.accesses = List.concat_map (fun e -> e.Step.accesses) !events;
        allocs = List.concat_map (fun e -> e.Step.allocs) !events;
      } )

(* Full expansion is [Step.successors]; a strategy fires what its
   expansion returns. *)
let naive_full ~max_configs ctx =
  naive_log ~max_configs ~admit:Space.no_revisits ~init:() ctx
    ~successors:(fun c () ->
      List.map
        (fun (_, c', evs) -> (c', evs, ()))
        (Cobegin_semantics.Step.successors ctx c))

let naive_strategy ~max_configs ~expand ~admit ~init ctx =
  let module Step = Cobegin_semantics.Step in
  naive_log ~max_configs ~admit ~init ctx ~successors:(fun c a ->
      match Step.enabled_actions ctx c with
      | [] -> []
      | enabled ->
          List.map
            (fun (action, a') ->
              let c', evs = Step.fire_action ctx c action in
              (c', evs, a'))
            (expand c a enabled))

(* The kernel's log, as the analyses read it, equals the oracle's for
   every engine; the parallel engine is compared on complete runs. *)
let log_agrees ?(max_configs = 1500) ctx =
  let module Step = Cobegin_semantics.Step in
  let log r = Cobegin_analysis.Event.of_concrete r.Space.log in
  let _, full = naive_full ~max_configs ctx in
  let _, stubborn =
    let mctx = Mayaccess.make_ctx ctx.Step.prog in
    naive_strategy ~max_configs ~admit:Space.no_revisits ~init:() ctx
      ~expand:(fun c () enabled ->
        List.map
          (fun a -> (a, ()))
          (Stubborn.choose_expansion mctx ctx c enabled))
  in
  let _, sleep =
    naive_strategy ~max_configs ~admit:Sleep.admit ~init:Sleep.awake ctx
      ~expand:(Sleep.expansion ctx)
  in
  let seq = Space.full ~max_configs ctx in
  let agree =
    log seq = full
    && log (Stubborn.explore ~max_configs ctx) = stubborn
    && log (Sleep.explore ~max_configs ctx) = sleep
  in
  agree
  && ((not (Budget.is_complete seq.Space.status))
     || List.for_all
          (fun jobs -> log (Parallel.full ~max_configs ~jobs ctx) = full)
          [ 2; 4 ])

let pool_tests =
  [
    case "the kernel's event log equals a naive BFS's (corpus, sc/tso/pso)"
      (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun model ->
                let ctx =
                  Cobegin_semantics.Step.make_ctx ~model (parse src)
                in
                check_bool
                  (Printf.sprintf "%s under %s" name
                     (Cobegin_semantics.Step.model_name model))
                  true (log_agrees ctx))
              Cobegin_semantics.Step.[ Sc; Tso; Pso ])
          Cobegin_models.Corpus.all);
    qtest ~count:30 "the kernel's event log equals a naive BFS's (random)"
      seed_gen (fun seed ->
        log_agrees (Cobegin_semantics.Step.make_ctx (random_program seed)));
    case "progress samples report the exploration's own pools" (fun () ->
        let module Journal = Cobegin_obs.Journal in
        let evs =
          with_journal ~capacity:10_000 (fun () ->
              ignore
                (Space.full
                   (ctx_of (Cobegin_models.Corpus.find "phil3" |> Option.get)));
              Journal.ring_events ())
        in
        match
          List.filter (fun e -> e.Journal.e_name = "space.progress") evs
        with
        | [] -> Alcotest.fail "no progress event"
        | samples ->
            List.iter
              (fun e ->
                let size k =
                  match List.assoc_opt k e.Journal.e_fields with
                  | Some (Journal.Int n) -> n
                  | _ -> 0
                in
                check_bool "processes pooled" true (size "pool.procs" > 0);
                check_bool "no more stores than configurations" true
                  (size "pool.stores" > 0
                  && size "pool.stores" <= size "configurations"))
              samples);
    case "explorations in one process share no pool state" (fun () ->
        (* every parsed model numbers its labels from 1, so any two
           overlap: with a process-wide pool, the second run could fold
           one model's process into the other's *)
        let engines =
          [
            ("full", fun ctx -> Space.full ctx);
            ("stubborn", fun ctx -> Stubborn.explore ctx);
            ("sleep", fun ctx -> Sleep.explore ctx);
            ("parallel", fun ctx -> Parallel.full ~jobs:2 ctx);
          ]
        in
        let summary engine (model, src) =
          let r =
            engine (Cobegin_semantics.Step.make_ctx ~model (parse src))
          in
          ( r.Space.stats.Space.configurations,
            r.Space.stats.Space.transitions,
            r.Space.stats.Space.finals,
            r.Space.stats.Space.deadlocks,
            r.Space.stats.Space.errors,
            final_reprs r )
        in
        let find name = Cobegin_models.Corpus.find name |> Option.get in
        List.iter
          (fun (a, b) ->
            List.iter
              (fun (ename, engine) ->
                (* a, then b after a, then a after b *)
                let first_a = summary engine a in
                let b_after_a = summary engine b in
                let a_after_b = summary engine a in
                let label x = Printf.sprintf "%s (%s)" x ename in
                check_bool (label "a after b") true (a_after_b = first_a);
                check_bool (label "b after a") true
                  (b_after_a = summary engine b))
              engines;
            (* and the first runs were right: the full engine's count is
               the number of distinct canonical representations *)
            List.iter
              (fun ((model, src) as m) ->
                let n, _ =
                  naive_full ~max_configs:max_int
                    (Cobegin_semantics.Step.make_ctx ~model (parse src))
                in
                let configurations, _, _, _, _, _ =
                  summary (fun ctx -> Space.full ctx) m
                in
                check_int "configurations" n configurations)
              [ a; b ])
          Cobegin_semantics.Step.
            [
              ((Sc, find "fig2"), (Sc, find "fig5"));
              ((Tso, find "peterson_fenced"), (Tso, find "dekker_fenced"));
              ((Sc, find "phil2"), (Sc, find "mutex"));
            ]);
  ]

let suite =
  count_tests @ all_figures_agree @ property_tests @ directed_tests
  @ composition_tests
  @ forktree_tests @ trace_tests @ sleep_tests @ replay_tests @ witness_tests
  @ mayaccess_tests @ visitor_tests @ pool_tests
