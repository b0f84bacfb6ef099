(* The state-space generation engine (paper section 2).

   Breadth-first generation of the configuration graph.  [generate] is
   the one sequential BFS of the explicit-state engines: the full and
   stubborn strategies, the sleep-set engine, checkpointed runs and the
   race scan are all parameters of it — a per-state annotation, an
   expansion, an admission policy for revisits, a visitor and an
   iteration-boundary hook.  The engine accumulates:

     - counts (configurations, transitions, frontier width),
     - terminal configurations: final (all processes done), deadlocks,
       error configurations,
     - the merged instrumentation log (accesses + allocations), which is
       the input of the section-5 analyses.  *)

open Cobegin_semantics
module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

(* Telemetry handles: process-global, no-ops (one branch) while
   telemetry is disabled. *)
let m_expansions = Metrics.counter "space.expansions"
let m_transitions = Metrics.counter "space.transitions"
let m_digest_hits = Metrics.counter "space.digest_hits"
let m_admitted = Metrics.counter "space.admitted"

type stats = {
  configurations : int;
  transitions : int;
  max_frontier : int;
  finals : int;
  deadlocks : int;
  errors : int;
}

type result = {
  stats : stats;
  status : Budget.status;
  final_configs : Config.t list;
  deadlock_configs : Config.t list;
  error_configs : Config.t list;
  log : Step.events;
}

type terminals = {
  mutable finals : Config.t list;
  mutable deadlocks : Config.t list;
  mutable errors : Config.t list;
}

let no_terminals () = { finals = []; deadlocks = []; errors = [] }

let classify ctx t c =
  if Config.is_error c then begin
    t.errors <- c :: t.errors;
    []
  end
  else if Config.all_terminated c then begin
    t.finals <- c :: t.finals;
    []
  end
  else
    match Step.enabled_actions ctx c with
    | [] ->
        t.deadlocks <- c :: t.deadlocks;
        []
    | actions -> actions

(* Budget truncation leaves admitted configurations in the frontier
   that were never popped; without this pass a Truncated report
   undercounts finals/deadlocks/errors — every one of them counted as a
   configuration but none as a terminal.  Classify them (no expansion,
   no new transitions, no new admissions) into a copy, so the caller's
   record still holds the pre-drain state. *)
let drain ?(visit = fun _ _ -> ()) ctx t configs =
  let t = { finals = t.finals; deadlocks = t.deadlocks; errors = t.errors } in
  Seq.iter (fun c -> visit c (classify ctx t c)) configs;
  t

let assemble ~status ~configurations ~transitions ~max_frontier ~log t =
  {
    status;
    stats =
      {
        configurations;
        transitions;
        max_frontier;
        finals = List.length t.finals;
        deadlocks = List.length t.deadlocks;
        errors = List.length t.errors;
      };
    final_configs = t.finals;
    deadlock_configs = t.deadlocks;
    error_configs = t.errors;
    log;
  }

type 'a remainder = {
  r_config : Config.t;
  r_refused : Config.t * 'a;
  r_actions : (Step.action * 'a) list;
}

(* The kernel state owns the exploration's interner: its pools hold
   exactly the components this run met, and every admitted
   configuration is rebuilt from them (Config.intern). *)
type 'a state = {
  interner : Intern.state;
  visited : 'a Config.Digest_tbl.t;
  queue : (Config.t * 'a) Queue.t;
  terminals : terminals;
  mutable transitions : int;
  mutable max_frontier : int;
  events : Step.log; (* the distinct events fired *)
  mutable remainder : 'a remainder option;
}

let start ctx a =
  let interner = Intern.create () in
  let visited = Config.Digest_tbl.create 1024 and queue = Queue.create () in
  let c0, d0 = Config.intern interner (Step.init ctx) in
  Config.Digest_tbl.replace visited d0 a;
  Queue.add (c0, a) queue;
  {
    interner;
    visited;
    queue;
    terminals = no_terminals ();
    transitions = 0;
    max_frontier = 0;
    events = Step.new_log ();
    remainder = None;
  }

let no_revisits _ _ = None
let all_actions _ () actions = List.map (fun a -> (a, ())) actions

let generate ?(max_configs = 1_000_000) ?budget ?(visit = fun _ _ -> ())
    ?(boundary = ignore) ?(log = true) ~site ~admit ~expand ctx st : result =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~max_configs ()
  in
  let pop_site = site ^ ".pop" in
  let configurations () = Config.Digest_tbl.length st.visited in
  let stop = ref None in
  let pops = ref 0 in
  (* Fire [(action, annotation)] pairs in order; break out as soon as
     the budget stops the run: the remaining successors must not fire,
     or transitions and event logs inflate past the stop. *)
  let rec fire_each c = function
    | [] -> ()
    | (action, a') :: rest ->
        st.transitions <- st.transitions + 1;
        if log then Metrics.incr m_transitions;
        let c', evs = Step.fire_action ctx c action in
        if log then Step.record st.events evs;
        offer c (c', a') rest
  (* Admit the fired successor [c'] of [c], rebuilt from the pools,
     then fire [rest].  When the budget refuses [c'], the state keeps
     [c'] and [rest] as the remainder of [c]'s expansion, for a resumed
     run to finish. *)
  and offer c (c', a') rest =
    let pooled, d' = Config.intern st.interner c' in
    (match Config.Digest_tbl.find_opt st.visited d' with
    | Some recorded -> (
        match admit recorded a' with
        | None -> if log then Metrics.incr m_digest_hits
        | Some merged ->
            Config.Digest_tbl.replace st.visited d' merged;
            Queue.add (pooled, merged) st.queue)
    | None -> (
        match Budget.config_guard budget ~configs:(configurations ()) with
        | Some r ->
            stop := Some r;
            st.remainder <-
              Some { r_config = c; r_refused = (c', a'); r_actions = rest }
        | None ->
            if log then Metrics.incr m_admitted;
            Config.Digest_tbl.replace st.visited d' a';
            Queue.add (pooled, a') st.queue));
    if !stop = None then fire_each c rest
  in
  (* A state saved by a run the budget cut mid-expansion: finish that
     expansion first, as the uninterrupted run did before its next pop. *)
  Option.iter
    (fun r ->
      st.remainder <- None;
      offer r.r_config r.r_refused r.r_actions)
    st.remainder;
  while !stop = None && not (Queue.is_empty st.queue) do
    match
      Budget.check budget ~configs:(configurations ())
        ~transitions:st.transitions
    with
    | Some r -> stop := Some r
    | None -> (
        boundary st;
        Fault.hit pop_site;
        incr pops;
        if Journal.enabled () && !pops mod Journal.progress_every = 0 then
          Journal.progress site ~configurations:(configurations ())
            ~frontier:(Queue.length st.queue) ~transitions:st.transitions
            ~pools:(Intern.sizes st.interner) ~budget
            [ ("pops", Journal.Int !pops) ];
        if log then Metrics.incr m_expansions;
        st.max_frontier <- max st.max_frontier (Queue.length st.queue);
        let c, a = Queue.pop st.queue in
        let enabled = classify ctx st.terminals c in
        visit c enabled;
        match enabled with [] -> () | _ -> fire_each c (expand c a enabled))
  done;
  let terminals =
    if !stop = None then st.terminals
    else drain ~visit ctx st.terminals (Seq.map fst (Queue.to_seq st.queue))
  in
  if Journal.enabled () then
    Journal.emit (site ^ ".done")
      [
        ("configurations", Journal.Int (configurations ()));
        ("transitions", Journal.Int st.transitions);
        ("complete", Journal.Bool (!stop = None));
      ];
  assemble ~status:(Budget.status_of !stop) ~configurations:(configurations ())
    ~transitions:st.transitions ~max_frontier:st.max_frontier
    ~log:(Step.logged st.events) terminals

let explore ?max_configs ?budget ctx ~expand : result =
  generate ?max_configs ?budget ~site:"space" ~admit:no_revisits
    ~expand:(fun c () enabled ->
      List.map (fun a -> (a, ())) (expand c enabled))
    ctx (start ctx ())

(* Ordinary (full interleaving) generation. *)
let full ?max_configs ?budget ctx =
  generate ?max_configs ?budget ~site:"space" ~admit:no_revisits
    ~expand:all_actions ctx (start ctx ())

(* Canonical set of final stores, for strategy comparisons: sorted and
   deduplicated by the canonical representation, so it compares equal
   across runs and engines, whatever their interners. *)
let final_store_reprs (r : result) =
  List.sort_uniq compare
    (List.map (fun c -> Store.repr c.Config.store) r.final_configs)

let pp_stats ppf s =
  Format.fprintf ppf
    "configurations=%d transitions=%d max_frontier=%d finals=%d \
     deadlocks=%d errors=%d"
    s.configurations s.transitions s.max_frontier s.finals s.deadlocks
    s.errors
