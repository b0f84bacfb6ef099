(* Next-action footprints and continuation may-access: the inputs of the
   stubborn-set reduction (paper Algorithm 1), tested directly. *)

open Cobegin_semantics
open Cobegin_explore
open Helpers
module LS = Value.LocSet

(* Drive a program with leftmost scheduling for [n] steps, then return
   (ctx, configuration). *)
let after_steps src n =
  let ctx = ctx_of src in
  let rec go c k =
    if k = 0 then c
    else
      match Step.enabled_processes ctx c with
      | [] -> c
      | p :: _ ->
          let c', _ = Step.fire ctx c p in
          go c' (k - 1)
  in
  (ctx, go (Step.init ctx) n)

let loc_names (_c : Config.t) =
  (* map locations to their creation-site labels for readable asserts *)
  fun ls -> List.map (fun l -> l.Value.l_site) (LS.elements ls) |> List.sort compare

let footprint_tests =
  [
    case "assignment footprint: reads RHS vars, writes LHS" (fun () ->
        (* after 2 decls the next action is x = y + 1 *)
        let ctx, c =
          after_steps "proc main() { var y = 1; var x = 0; x = y + 1; }" 2
        in
        let p = List.hd (Step.enabled_processes ctx c) in
        let fp = Step.action_footprint ctx c p in
        (* y holds 1, x holds 0: identify the cells by value *)
        let holding v ls =
          LS.exists (fun l -> Store.find l c.Config.store = Some (Value.Vint v)) ls
        in
        check_int "one read" 1 (LS.cardinal fp.Step.freads);
        check_bool "reads y" true (holding 1 fp.Step.freads);
        check_int "one write" 1 (LS.cardinal fp.Step.fwrites);
        check_bool "writes x" true (holding 0 fp.Step.fwrites));
    case "deref footprint includes the pointer and the cell" (fun () ->
        let ctx, c =
          after_steps "proc main() { var p = malloc(1); *p = 3; }" 2
        in
        let p = List.hd (Step.enabled_processes ctx c) in
        let fp = Step.action_footprint ctx c p in
        (* reads: the pointer variable (a non-heap cell); writes: the
           heap cell itself *)
        check_bool "reads the pointer variable" true
          (LS.exists
             (fun l -> not (Store.is_heap l c.Config.store))
             fp.Step.freads);
        check_bool "writes the heap cell" true
          (LS.exists (fun l -> Store.is_heap l c.Config.store) fp.Step.fwrites));
    case "await footprint is its condition's read set" (fun () ->
        let ctx, c =
          after_steps "proc main() { var f = 0; cobegin { await(f == 1); } { f = 1; } coend; }" 2
        in
        (* both branch processes live; find the awaiting one *)
        let procs = Config.processes c in
        let awaiting =
          List.find
            (fun p ->
              match Proc.next_stmt p with
              | Some { Cobegin_lang.Ast.kind = Cobegin_lang.Ast.Sawait _; _ } ->
                  true
              | _ -> false)
            procs
        in
        let fp = Step.action_footprint ctx c awaiting in
        check_int "reads exactly f" 1 (LS.cardinal fp.Step.freads);
        check_bool "writes nothing" true (LS.is_empty fp.Step.fwrites));
    case "atomic block footprint accumulates the whole run" (fun () ->
        let ctx, c =
          after_steps
            "proc main() { var a = 0; var b = 0; atomic { a = 1; b = a + 1; } }"
            2
        in
        let p = List.hd (Step.enabled_processes ctx c) in
        let fp = Step.action_footprint ctx c p in
        check_int "writes both cells" 2 (LS.cardinal fp.Step.fwrites);
        check_bool "reads a (from the second statement)" true
          (LS.cardinal fp.Step.freads >= 1));
    case "footprint conflict detection" (fun () ->
        let mk r w =
          { Step.freads = LS.of_list r; Step.fwrites = LS.of_list w }
        in
        let l s = { Value.l_pid = []; l_site = s; l_seq = 0; l_off = 0 } in
        check_bool "W/R conflicts" true
          (Step.footprint_conflict (mk [] [ l 1 ]) (mk [ l 1 ] []));
        check_bool "R/R does not" false
          (Step.footprint_conflict (mk [ l 1 ] []) (mk [ l 1 ] []));
        check_bool "disjoint does not" false
          (Step.footprint_conflict (mk [ l 1 ] [ l 2 ]) (mk [ l 3 ] [ l 4 ])));
  ]

let mayaccess_tests =
  [
    case "future accesses include everything left on the stack" (fun () ->
        let src =
          "proc main() { var a = 0; var b = 0; cobegin { a = 1; } { skip; \
           skip; b = a + 2; } coend; }"
        in
        let ctx, c = after_steps src 3 in
        let mctx = Mayaccess.make_ctx ctx.Step.prog in
        (* the second branch's future must read a (site 1) and write b
           (site 2) even though its next action is skip *)
        let branch2 =
          List.find
            (fun p -> p.Proc.pid <> [] && List.exists (fun (_, i) -> i = 1) p.Proc.pid)
            (Config.processes c)
        in
        let fut = Mayaccess.of_process mctx branch2 in
        check_bool "reads something eventually" true
          (not (LS.is_empty fut.Mayaccess.freads));
        check_bool "writes something eventually" true
          (not (LS.is_empty fut.Mayaccess.fwrites));
        (* specifically: the future write set and read set include outer
           variables (a and b), which resolve to existing locations *)
        check_bool "resolves against the store" true
          (LS.for_all
             (fun l -> Store.mem l c.Config.store)
             (LS.union fut.Mayaccess.freads fut.Mayaccess.fwrites)));
    case "callee memory effects flow into the future summary" (fun () ->
        let src =
          "proc w(p) { *p = 7; } proc main() { var h = malloc(1); cobegin { \
           w(h); } { skip; } coend; }"
        in
        (* var h = malloc(1) desugars into two statements, then the
           cobegin spawn: three steps until the branches exist *)
        let ctx, c = after_steps src 3 in
        let mctx = Mayaccess.make_ctx ctx.Step.prog in
        let branch1 =
          List.find (fun p -> p.Proc.pid <> []) (Config.processes c)
        in
        let fut = Mayaccess.of_process mctx branch1 in
        check_bool "may write memory" true fut.Mayaccess.mem_write);
    case "conflict: footprint vs memory token through the store" (fun () ->
        let src =
          "proc w(p) { *p = 7; } proc main() { var h = malloc(1); var x = \
           0; cobegin { w(h); } { x = *h; } coend; }"
        in
        let ctx, c = after_steps src 4 in
        let mctx = Mayaccess.make_ctx ctx.Step.prog in
        let procs = Config.processes c in
        let b1 =
          List.find
            (fun p -> p.Proc.pid <> [] && snd (List.hd p.Proc.pid) = 0)
            procs
        in
        let b2 =
          List.find
            (fun p -> p.Proc.pid <> [] && snd (List.hd p.Proc.pid) = 1)
            procs
        in
        let fp2 = Step.action_footprint ctx c b2 in
        let fut1 = Mayaccess.of_process mctx b1 in
        (* b2 reads the heap cell; b1's future writes memory: conflict *)
        check_bool "mem conflict detected" true
          (Mayaccess.conflicts_footprint c.Config.store fp2 fut1));
  ]

(* Every generated program is well formed and terminates under every
   tested scheduler. *)
let generator_tests =
  [
    qtest ~count:50 "generated programs pass the static checks" seed_gen
      (fun seed ->
        let src = Cobegin_models.Generator.source ~seed () in
        match Cobegin_lang.Parser.parse_string src with
        | p -> Cobegin_lang.Check.ok (Cobegin_lang.Check.check p)
        | exception _ -> false);
    qtest ~count:25 "generated programs terminate without deadlock" seed_gen
      (fun seed ->
        let prog = random_program seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        List.for_all
          (fun s ->
            match (Exec.run_random ~max_steps:50_000 ctx ~seed:s).Exec.outcome with
            | Exec.Terminated _ -> true
            | Exec.Error _ -> true (* generator may divide? no: still fine *)
            | Exec.Deadlock _ | Exec.Out_of_fuel _ -> false)
          [ 1; 2; 3 ]);
    qtest ~count:30 "generation is deterministic in the seed" seed_gen
      (fun seed ->
        Cobegin_models.Generator.source ~seed ()
        = Cobegin_models.Generator.source ~seed ());
  ]

let replay_finish_tests =
  [
    case "replay_then_finish completes a witness prefix" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.fig2 in
        (* take any 3-step prefix from the leftmost run and finish *)
        let r = Exec.run_leftmost ctx in
        let prefix =
          List.rev r.Exec.trace |> List.filteri (fun i _ -> i < 3)
          |> List.map (fun e -> Replay.Run e.Exec.chosen)
        in
        match Replay.replay_then_finish ctx prefix with
        | Exec.Terminated _ -> ()
        | _ -> Alcotest.fail "prefix should finish cleanly");
  ]

let suite =
  footprint_tests @ mayaccess_tests @ generator_tests @ replay_finish_tests
