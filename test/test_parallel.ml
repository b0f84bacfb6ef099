(* The multi-domain exploration engine and the thread-safety layer
   under it.

   (a) cross-engine equivalence: on every corpus model and on random
       programs, a complete parallel run reports the same
       configuration/transition/terminal counts and the same
       final-store multiset as the sequential engine (max_frontier is
       schedule-dependent and excluded);
   (b) the interning layer keeps ids sequential and stable when hammered
       from several domains at once;
   (c) budget truncation fires once across domains: one latched reason,
       observed identically by every caller;
   (d) truncated runs classify the admitted-but-unexpanded frontier, so
       terminal counts are not undercounted (regression: they used to
       be);
   (e) the stats printers include max_frontier (regression: they
       omitted it). *)

open Cobegin_explore
open Helpers

let agree_except_frontier (seq : Space.result) (par : Space.result) =
  let s = seq.Space.stats and p = par.Space.stats in
  s.Space.configurations = p.Space.configurations
  && s.Space.transitions = p.Space.transitions
  && s.Space.finals = p.Space.finals
  && s.Space.deadlocks = p.Space.deadlocks
  && s.Space.errors = p.Space.errors
  && final_reprs seq = final_reprs par

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let equivalence_tests =
  [
    case "parallel agrees with sequential on every corpus model" (fun () ->
        List.iter
          (fun (name, src) ->
            let ctx = ctx_of src in
            let seq = Space.full ctx in
            check_bool (name ^ " sequential complete") true
              (Budget.is_complete seq.Space.status);
            List.iter
              (fun jobs ->
                let par = Parallel.full ~jobs ctx in
                check_bool
                  (Printf.sprintf "%s parallel complete (jobs=%d)" name jobs)
                  true
                  (Budget.is_complete par.Space.status);
                check_bool
                  (Printf.sprintf "%s counts agree (jobs=%d)" name jobs)
                  true
                  (agree_except_frontier seq par))
              [ 2; 4 ])
          Cobegin_models.Corpus.all);
    case "jobs=1 delegates to the sequential engine" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.fig5 in
        let seq = Space.full ctx in
        let one = Parallel.full ~jobs:1 ctx in
        check_bool "identical stats (including max_frontier)" true
          (seq.Space.stats = one.Space.stats));
    qtest ~count:20 "parallel agrees with sequential on random programs"
      seed_gen (fun seed ->
        let prog = random_program seed in
        let ctx = Cobegin_semantics.Step.make_ctx prog in
        let seq = Space.full ctx in
        let par = Parallel.full ~jobs:2 ctx in
        Budget.is_complete seq.Space.status
        && Budget.is_complete par.Space.status
        && agree_except_frontier seq par);
  ]

(* A fresh pool hammered from four domains: ids must stay sequential
   (0..n-1, each exactly once) and stable (re-interning returns the
   same id). *)
module IntPool = Cobegin_hash.Pool (struct
  type t = int

  let equal = Int.equal
  let hash = Cobegin_hash.hash_int
  let found = ignore
  let added = ignore
end)

let intern_tests =
  [
    case "pool ids stay sequential and stable across 4 domains" (fun () ->
        let pool = IntPool.create ~shared:true 64 in
        let n = 100 in
        let keys w = List.init n (fun i -> (i + (w * 17)) mod n) in
        let domains =
          List.init 4 (fun w ->
              Domain.spawn (fun () ->
                  List.map
                    (fun k -> (k, snd (IntPool.intern pool k)))
                    (keys w)))
        in
        let assignments = List.concat_map Domain.join domains in
        check_int "every distinct key got an id" n (IntPool.size pool);
        List.iter
          (fun (k, id) ->
            check_bool "id in range" true (id >= 0 && id < n);
            check_int
              (Printf.sprintf "key %d stable on re-intern" k)
              id (snd (IntPool.intern pool k)))
          assignments;
        (* same key, same id — across whatever domain interned it *)
        List.iter
          (fun (k, id) ->
            List.iter
              (fun (k', id') -> if k = k' then check_int "agree" id id')
              assignments)
          assignments);
    case "digests computed from 4 domains agree and ids stay put" (fun () ->
        let ctx = ctx_of Cobegin_models.Figures.fig5 in
        let seq = Space.full ctx in
        let configs =
          seq.Space.final_configs @ seq.Space.deadlock_configs
          |> fun l -> if l = [] then [ Cobegin_semantics.Step.init ctx ] else l
        in
        let st = Cobegin_semantics.Intern.create ~shared:true () in
        let digest c = snd (Cobegin_semantics.Config.intern st c) in
        List.iter (fun c -> ignore (digest c)) configs;
        let procs0 = Cobegin_semantics.Intern.distinct_procs st in
        let stores0 = Cobegin_semantics.Intern.distinct_stores st in
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () -> List.map digest configs))
        in
        let per_domain = List.map Domain.join domains in
        (match per_domain with
        | first :: rest ->
            List.iter
              (fun ds ->
                List.iter2
                  (fun a b ->
                    check_bool "digest equal across domains" true
                      (Cobegin_semantics.Config.digest_equal a b))
                  first ds)
              rest
        | [] -> assert false);
        (* everything was already interned: re-digesting from four
           domains must not have grown the pools *)
        check_int "proc pool unchanged" procs0
          (Cobegin_semantics.Intern.distinct_procs st);
        check_int "store pool unchanged" stores0
          (Cobegin_semantics.Intern.distinct_stores st));
  ]

let truncation_tests =
  [
    case "shared budget latches one reason across 4 domains" (fun () ->
        let b =
          Budget.create ~max_configs:10 ~max_transitions:7 ~shared:true ()
        in
        let domains =
          List.init 4 (fun w ->
              Domain.spawn (fun () ->
                  (* half the domains would trip the transition limit
                     first, half the configuration limit: the latch must
                     make them all report the same winner *)
                  let configs = if w mod 2 = 0 then 50 else 0 in
                  let transitions = if w mod 2 = 0 then 0 else 50 in
                  List.init 25 (fun _ -> Budget.check b ~configs ~transitions)))
        in
        let observed =
          List.concat_map Domain.join domains |> List.filter_map Fun.id
        in
        check_bool "every check fired" true (List.length observed = 100);
        match Budget.tripped b with
        | None -> Alcotest.fail "no reason latched"
        | Some r ->
            List.iter
              (fun r' ->
                check_bool "all observations equal the latched reason" true
                  (r' = r))
              observed);
    case "parallel truncation reports one recorded reason" (fun () ->
        let budget = Budget.create ~max_configs:50 ~shared:true () in
        let ctx = ctx_of (Cobegin_models.Philosophers.program ~rounds:1 3) in
        let r = Parallel.full ~jobs:4 ~budget ctx in
        (match r.Space.status with
        | Budget.Truncated (Budget.Configs 50) -> ()
        | Budget.Truncated _ -> Alcotest.fail "wrong truncation reason"
        | Budget.Complete -> Alcotest.fail "expected truncation");
        check_bool "budget latched the same reason" true
          (Budget.tripped budget = Some (Budget.Configs 50)));
  ]

(* Truncating at exactly the complete run's configuration count admits
   every reachable configuration, then trips on the next pop — so with
   the frontier-drain fix the terminal counts must equal the complete
   run's.  Before the fix the queued terminals were silently dropped. *)
let drain_tests =
  let counts (s : Space.stats) = (s.Space.finals, s.Space.deadlocks, s.Space.errors) in
  [
    case "truncated Space run classifies the queued terminals" (fun () ->
        List.iter
          (fun src ->
            let ctx = ctx_of src in
            let full = Space.full ctx in
            let n = full.Space.stats.Space.configurations in
            let trunc = Space.full ~max_configs:n ctx in
            (match trunc.Space.status with
            | Budget.Truncated (Budget.Configs _) -> ()
            | _ -> Alcotest.fail "expected a configuration truncation");
            check_int "all configurations admitted" n
              trunc.Space.stats.Space.configurations;
            check_bool "terminal counts match the complete run" true
              (counts full.Space.stats = counts trunc.Space.stats))
          [
            Cobegin_models.Figures.fig5;
            Cobegin_models.Philosophers.program ~rounds:1 2;
          ]);
    case "truncated Sleep run classifies the queued terminals" (fun () ->
        let src = Cobegin_models.Philosophers.program ~rounds:1 2 in
        let full = Sleep.explore (ctx_of src) in
        let n = full.Space.stats.Space.configurations in
        let trunc = Sleep.explore ~max_configs:n (ctx_of src) in
        (match trunc.Space.status with
        | Budget.Truncated (Budget.Configs _) -> ()
        | _ -> Alcotest.fail "expected a configuration truncation");
        check_bool "terminal counts match the complete run" true
          (counts full.Space.stats = counts trunc.Space.stats));
    case "truncated Reach run counts the queued deadlocks" (fun () ->
        let net = Cobegin_models.Philosophers.net 3 in
        let full = Cobegin_petri.Reach.full net in
        let n = full.Cobegin_petri.Reach.stats.Cobegin_petri.Reach.states in
        let trunc = Cobegin_petri.Reach.full ~max_states:n net in
        (match trunc.Cobegin_petri.Reach.status with
        | Budget.Truncated (Budget.Configs _) -> ()
        | _ -> Alcotest.fail "expected a state truncation");
        check_int "deadlock count matches the complete run"
          full.Cobegin_petri.Reach.stats.Cobegin_petri.Reach.deadlocks
          trunc.Cobegin_petri.Reach.stats.Cobegin_petri.Reach.deadlocks);
  ]

let pp_tests =
  [
    case "Space.pp_stats prints max_frontier" (fun () ->
        let r = explore_full Cobegin_models.Figures.fig5 in
        let s = Format.asprintf "%a" Space.pp_stats r.Space.stats in
        check_bool "max_frontier present" true (contains s "max_frontier="));
    case "Reach.pp_stats prints max_frontier" (fun () ->
        let r = Cobegin_petri.Reach.full (Cobegin_models.Philosophers.net 2) in
        let s =
          Format.asprintf "%a" Cobegin_petri.Reach.pp_stats
            r.Cobegin_petri.Reach.stats
        in
        check_bool "max_frontier present" true (contains s "max_frontier="));
    case "the coanalyze report text carries max_frontier" (fun () ->
        let report =
          Cobegin_core.Pipeline.analyze_source Cobegin_models.Figures.fig2
        in
        let s =
          Format.asprintf "%a" Cobegin_core.Pipeline.pp_report report
        in
        check_bool "max_frontier present" true (contains s "max_frontier="));
  ]

let suite =
  equivalence_tests @ intern_tests @ truncation_tests @ drain_tests
  @ pp_tests
