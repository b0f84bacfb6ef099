(* TSO/PSO store-buffer semantics: SC regression pins, litmus tests,
   the protocol matrix, cross-engine agreement and checkpointing of
   buffered configurations. *)

open Helpers
module Step = Cobegin_semantics.Step
module Config = Cobegin_semantics.Config
module Store = Cobegin_semantics.Store
module Exec = Cobegin_semantics.Exec
module Space = Cobegin_explore.Space
module Stubborn = Cobegin_explore.Stubborn
module Sleep = Cobegin_explore.Sleep
module Parallel = Cobegin_explore.Parallel
module Checkpoint = Cobegin_explore.Checkpoint

module Corpus = Cobegin_models.Corpus

let ctx_of_model model src = Step.make_ctx ~model (parse src)

let corpus_src name =
  match Corpus.find name with
  | Some src -> src
  | None -> Alcotest.failf "corpus model %s not found" name

let full_of model name = Space.full (ctx_of_model model (corpus_src name))

(* (configurations, transitions, max_frontier, finals, deadlocks,
   errors) — the order [Space.pp_stats] prints. *)
let counts (r : Space.result) =
  let s = r.Space.stats in
  ( s.Space.configurations,
    s.Space.transitions,
    s.Space.max_frontier,
    s.Space.finals,
    s.Space.deadlocks,
    s.Space.errors )

let check_counts name expected r =
  let got = counts r in
  if got <> expected then
    let p (c, t, m, f, d, e) =
      Printf.sprintf "%d/%d/%d/%d/%d/%d" c t m f d e
    in
    Alcotest.failf "%s: expected %s, got %s" name (p expected) (p got)

(* Every corpus model that predates the memory-model work, with its
   full-engine statistics pinned.  The store-buffer machinery must not
   perturb SC exploration by a single configuration. *)
let sc_pins =
  [
    ("fig2", (21, 22, 4, 3, 0, 0));
    ("fig3", (11, 10, 2, 2, 0, 0));
    ("fig5", (28, 43, 5, 1, 0, 0));
    ("example8", (16, 18, 3, 2, 0, 0));
    ("fig8", (108, 174, 13, 3, 0, 0));
    ("busywait", (11, 10, 1, 1, 0, 0));
    ("mutex", (17, 17, 2, 1, 0, 0));
    ("mutex_racy", (18, 19, 4, 3, 0, 0));
    ("firstclass", (9, 8, 1, 1, 0, 0));
    ("peterson", (57, 77, 7, 2, 0, 0));
    ("peterson_broken", (86, 123, 10, 2, 0, 4));
    ("barrier2", (228, 342, 16, 4, 0, 0));
    ("readers_writers", (72, 105, 7, 1, 0, 0));
    ("phil2", (72, 114, 8, 1, 1, 0));
    ("phil3", (557, 1328, 48, 1, 1, 0));
    ("phil2r2", (177, 288, 13, 1, 4, 0));
  ]

(* The reduced engines' SC statistics on every corpus model: stubborn,
   then sleep, in the same order.  They pin the directed persistent sets
   (docs/INTERNALS.md §1) and the firing order sleep sets depend on. *)
let reduced_pins =
  [
    ("fig2", (20, 20, 3, 3, 0, 0), (20, 19, 3, 3, 0, 0));
    ("fig3", (11, 10, 2, 2, 0, 0), (11, 10, 2, 2, 0, 0));
    ("fig5", (13, 13, 2, 1, 0, 0), (13, 13, 2, 1, 0, 0));
    ("example8", (13, 12, 2, 2, 0, 0), (13, 12, 2, 2, 0, 0));
    ("fig8", (49, 49, 4, 3, 0, 0), (44, 43, 3, 3, 0, 0));
    ("busywait", (11, 10, 1, 1, 0, 0), (11, 10, 1, 1, 0, 0));
    ("mutex", (17, 17, 2, 1, 0, 0), (17, 17, 2, 1, 0, 0));
    ("mutex_racy", (18, 19, 4, 3, 0, 0), (18, 18, 4, 3, 0, 0));
    ("firstclass", (9, 8, 1, 1, 0, 0), (9, 8, 1, 1, 0, 0));
    ("peterson", (41, 45, 4, 2, 0, 0), (41, 42, 4, 2, 0, 0));
    ("peterson_broken", (71, 83, 9, 2, 0, 4), (71, 87, 10, 2, 0, 4));
    ("peterson_fenced", (61, 65, 6, 2, 0, 0), (58, 59, 4, 2, 0, 0));
    ("dekker", (74, 99, 10, 2, 0, 0), (71, 84, 10, 2, 0, 0));
    ("dekker_fenced", (88, 113, 10, 2, 0, 0), (83, 96, 10, 2, 0, 0));
    ("barrier2", (211, 264, 16, 4, 0, 0), (189, 188, 13, 4, 0, 0));
    ("readers_writers", (50, 54, 5, 1, 0, 0), (48, 49, 5, 1, 0, 0));
    ("phil2", (37, 40, 4, 1, 1, 0), (36, 36, 4, 1, 1, 0));
    ("phil3", (142, 166, 16, 1, 1, 0), (106, 110, 12, 1, 1, 0));
    ("phil2r2", (97, 112, 8, 1, 4, 0), (93, 99, 8, 1, 4, 0));
  ]

let sc_pin_tests =
  List.map
    (fun (name, expected) ->
      case (Printf.sprintf "SC counts unchanged: %s" name) (fun () ->
          check_counts name expected (full_of Step.Sc name)))
    sc_pins
  @ [
      case "SC stubborn and sleep counts pinned on every corpus model"
        (fun () ->
          check_int "every model pinned" (List.length Corpus.all)
            (List.length reduced_pins);
          List.iter
            (fun (name, stubborn, sleep) ->
              let ctx () = ctx_of_model Step.Sc (corpus_src name) in
              check_counts (name ^ " stubborn") stubborn
                (Stubborn.explore (ctx ()));
              check_counts (name ^ " sleep") sleep (Sleep.explore (ctx ())))
            reduced_pins);
    ]

(* Under SC the action interface degenerates to one [Arun] per enabled
   process, in pid order — the buffer machinery is invisible. *)
let sc_action_tests =
  [
    case "SC actions are exactly the enabled processes" (fun () ->
        let ctx = ctx_of_model Step.Sc (corpus_src "peterson") in
        let c = Step.init ctx in
        let actions = Step.enabled_actions ctx c in
        let pids =
          List.map
            (function
              | Step.Arun p -> p.Cobegin_semantics.Proc.pid
              | Step.Aflush _ -> Alcotest.fail "flush action under SC")
            actions
        in
        let enabled =
          List.map
            (fun p -> p.Cobegin_semantics.Proc.pid)
            (Step.enabled_processes ctx c)
        in
        check_bool "same pids in order" true (pids = enabled));
  ]

(* Store-buffering litmus (SB): with both stores buffered, both loads
   can read the initial value — the classic non-SC outcome. *)
let sb_litmus =
  {|
proc main() {
  var x = 0;
  var y = 0;
  var r0 = 0;
  var r1 = 0;
  cobegin
    { x = 1; r0 = y; }
    { y = 1; r1 = x; }
  coend;
}
|}

let sb_litmus_fenced =
  {|
proc main() {
  var x = 0;
  var y = 0;
  var r0 = 0;
  var r1 = 0;
  cobegin
    { x = 1; fence; r0 = y; }
    { y = 1; fence; r1 = x; }
  coend;
}
|}

(* Message-passing litmus (MP): data then flag.  TSO's FIFO buffer
   preserves the publication order; PSO reorders the two stores unless
   a fence sits between them. *)
let mp_litmus =
  {|
proc main() {
  var data = 0;
  var flagv = 0;
  cobegin
    { data = 1; flagv = 1; }
    { if (flagv == 1) { assert(data == 1); } }
  coend;
}
|}

let mp_litmus_fenced =
  {|
proc main() {
  var data = 0;
  var flagv = 0;
  cobegin
    { data = 1; fence; flagv = 1; }
    { if (flagv == 1) { assert(data == 1); } }
  coend;
}
|}

let finals_of model src = (Space.full (ctx_of_model model src)).Space.stats.Space.finals
let errors_of model src = (Space.full (ctx_of_model model src)).Space.stats.Space.errors

let litmus_tests =
  [
    case "SB: both-stale outcome appears under TSO, not SC" (fun () ->
        check_int "SC finals" 3 (finals_of Step.Sc sb_litmus);
        check_int "TSO finals" 4 (finals_of Step.Tso sb_litmus);
        check_int "PSO finals" 4 (finals_of Step.Pso sb_litmus));
    case "SB: fences drain the buffers and restore the SC outcomes"
      (fun () ->
        check_int "TSO finals" 3 (finals_of Step.Tso sb_litmus_fenced);
        check_int "PSO finals" 3 (finals_of Step.Pso sb_litmus_fenced));
    case "MP: TSO's FIFO buffer preserves store order, PSO breaks it"
      (fun () ->
        check_int "SC errors" 0 (errors_of Step.Sc mp_litmus);
        check_int "TSO errors" 0 (errors_of Step.Tso mp_litmus);
        check_bool "PSO sees stale data" true (errors_of Step.Pso mp_litmus > 0));
    case "MP: a store-store fence repairs PSO" (fun () ->
        check_int "PSO errors" 0 (errors_of Step.Pso mp_litmus_fenced));
    case "a process reads its own buffered write" (fun () ->
        (* Without read-own-write forwarding the assert would observe
           the stale shared store and fail. *)
        let src = {|
proc main() {
  var x = 0;
  x = 1;
  assert(x == 1);
  x = 2;
  x = 3;
  assert(x == 3);
}
|} in
        check_int "TSO errors" 0 (errors_of Step.Tso src);
        check_int "PSO errors" 0 (errors_of Step.Pso src));
    case "pending writes drain before termination" (fun () ->
        let src = {|
proc main() {
  var x = 0;
  x = 1;
}
|} in
        let sc = Space.full (ctx_of_model Step.Sc src) in
        List.iter
          (fun model ->
            let r = Space.full (ctx_of_model model src) in
            check_int "finals" 1 r.Space.stats.Space.finals;
            check_int "deadlocks" 0 r.Space.stats.Space.deadlocks;
            check_bool "final store matches SC" true
              (final_reprs r = final_reprs sc))
          [ Step.Tso; Step.Pso ]);
  ]

(* The protocol matrix: Peterson and Dekker depend on store-to-load
   order, so they break under both relaxed models; the fenced variants
   verify clean everywhere.  Counts pinned from the full engine. *)
let protocol_tests =
  [
    case "peterson violates mutual exclusion under TSO" (fun () ->
        check_counts "peterson/tso" (1246, 3071, 113, 4, 0, 104)
          (full_of Step.Tso "peterson"));
    case "peterson violates mutual exclusion under PSO" (fun () ->
        check_counts "peterson/pso" (6212, 22269, 784, 4, 0, 760)
          (full_of Step.Pso "peterson"));
    case "peterson_fenced verifies clean under all models" (fun () ->
        check_counts "peterson_fenced/sc" (108, 167, 11, 2, 0, 0)
          (full_of Step.Sc "peterson_fenced");
        check_counts "peterson_fenced/tso" (236, 429, 20, 2, 0, 0)
          (full_of Step.Tso "peterson_fenced");
        check_counts "peterson_fenced/pso" (236, 429, 20, 2, 0, 0)
          (full_of Step.Pso "peterson_fenced"));
    case "dekker verifies under SC, violates under TSO and PSO" (fun () ->
        check_counts "dekker/sc" (92, 145, 12, 2, 0, 0)
          (full_of Step.Sc "dekker");
        check_counts "dekker/tso" (1241, 3166, 115, 4, 0, 84)
          (full_of Step.Tso "dekker");
        check_counts "dekker/pso" (4750, 16862, 485, 4, 0, 330)
          (full_of Step.Pso "dekker"));
    case "dekker_fenced verifies clean under all models" (fun () ->
        check_counts "dekker_fenced/sc" (129, 212, 14, 2, 0, 0)
          (full_of Step.Sc "dekker_fenced");
        check_counts "dekker_fenced/tso" (285, 552, 22, 2, 0, 0)
          (full_of Step.Tso "dekker_fenced");
        check_counts "dekker_fenced/pso" (332, 663, 22, 2, 0, 0)
          (full_of Step.Pso "dekker_fenced"));
  ]

(* All engines must agree under the relaxed models: stubborn and sleep
   degenerate soundly (no pruning of flush interleavings), the parallel
   engine is schedule-independent on complete runs. *)
let engine_agreement_tests =
  let agree model name =
    let src = corpus_src name in
    let full = Space.full (ctx_of_model model src) in
    let stubborn = Stubborn.explore (ctx_of_model model src) in
    let sleep = Sleep.explore (ctx_of_model model src) in
    let par = Parallel.full ~jobs:4 (ctx_of_model model src) in
    check_bool "stubborn counts" true (counts stubborn = counts full);
    check_bool "sleep counts" true (counts sleep = counts full);
    (* max_frontier is schedule-dependent on the parallel engine *)
    let strip (c, t, _, f, d, e) = (c, t, f, d, e) in
    check_bool "parallel counts" true
      (strip (counts par) = strip (counts full));
    check_bool "stubborn stores" true (final_reprs stubborn = final_reprs full);
    check_bool "sleep stores" true (final_reprs sleep = final_reprs full);
    check_bool "parallel stores" true (final_reprs par = final_reprs full)
  in
  [
    case "engines agree on peterson under TSO" (fun () ->
        agree Step.Tso "peterson");
    case "engines agree on dekker_fenced under PSO" (fun () ->
        agree Step.Pso "dekker_fenced");
    case "engines agree on the SB litmus under PSO" (fun () ->
        let ctx () = ctx_of_model Step.Pso sb_litmus in
        let full = Space.full (ctx ()) in
        let stubborn = Stubborn.explore (ctx ()) in
        let sleep = Sleep.explore (ctx ()) in
        check_bool "stubborn" true (counts stubborn = counts full);
        check_bool "sleep" true (counts sleep = counts full));
  ]

(* The direct executors are the oracle for the relaxed engines too:
   every terminated execution's final store must be explored. *)
let exec_tests =
  [
    case "random TSO executions land in the explored finals" (fun () ->
        let explored =
          Space.final_store_reprs
            (Space.full (ctx_of_model Step.Tso sb_litmus))
        in
        for seed = 1 to 20 do
          match
            (Exec.run_random (ctx_of_model Step.Tso sb_litmus) ~seed)
              .Exec.outcome
          with
          | Exec.Terminated c ->
              check_bool "store explored" true
                (List.mem (Store.repr c.Config.store) explored)
          | _ -> Alcotest.fail "TSO execution did not terminate"
        done);
    case "round-robin PSO execution terminates" (fun () ->
        match
          (Exec.run_round_robin (ctx_of_model Step.Pso mp_litmus)).Exec.outcome
        with
        | Exec.Terminated _ -> ()
        | _ -> Alcotest.fail "PSO execution did not terminate");
  ]

(* Checkpointing of buffered configurations: format version 2 carries
   store buffers and binds the memory model into the identity hash. *)
let checkpoint_path () =
  Filename.temp_file "cobegin-mm-ckpt" ".bin"

let checkpoint_tests =
  [
    case "truncate + resume under TSO matches the clean run" (fun () ->
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let ctx () = ctx_of_model Step.Tso (corpus_src "peterson_fenced") in
            let clean = Space.full (ctx ()) in
            let cadence =
              { Checkpoint.every_configs = 16; every_s = None }
            in
            let first =
              Checkpoint.full ~max_configs:100 ~cadence ~path (ctx ())
            in
            check_bool "first run truncated" false
              (Budget.is_complete first.Space.status);
            let resumed = Checkpoint.resume ~cadence ~path (ctx ()) in
            check_bool "resumed complete" true
              (Budget.is_complete resumed.Space.status);
            check_bool "stats equal" true (counts resumed = counts clean);
            check_bool "stores equal" true
              (final_reprs resumed = final_reprs clean)));
    case "a checkpoint is bound to its memory model" (fun () ->
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            let src = corpus_src "mutex" in
            ignore (Checkpoint.full ~path (ctx_of_model Step.Tso src));
            (* same program, different model: refused *)
            match Checkpoint.resume ~path (ctx_of_model Step.Sc src) with
            | exception Checkpoint.Corrupt _ -> ()
            | _ -> Alcotest.fail "SC resume of a TSO checkpoint accepted"));
    case "version-1 checkpoint files are refused" (fun () ->
        let path = checkpoint_path () in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            (* Forge a file with the real magic but the pre-buffer
               format version.  The header is two immediate ints, so a
               structurally identical record marshals the same. *)
            let oc = open_out_bin path in
            output_string oc "COBEGIN-CKPT\n";
            Marshal.to_channel oc (1, 0) [];
            close_out oc;
            match
              Checkpoint.resume ~path (ctx_of_model Step.Sc (corpus_src "mutex"))
            with
            | exception Checkpoint.Corrupt msg ->
                check_bool "message names the version" true
                  (String.length msg > 0)
            | _ -> Alcotest.fail "version-1 file accepted"));
  ]

let suite =
  sc_pin_tests @ sc_action_tests @ litmus_tests @ protocol_tests
  @ engine_agreement_tests @ exec_tests @ checkpoint_tests
