(* The exploration kernel (paper section 2): the one sequential
   breadth-first worklist, a functor over the operations of a state
   space ([SPACE]).  Its instances are the configurations of the
   interleaving semantics (Space: the full, stubborn, sleep-set,
   checkpointed, race-scanning and witness-searching runs), the folded
   configurations of the abstract machine and the markings of a Petri
   net; each engine is a call to [generate].  A run accumulates counts,
   the terminal configurations [classify] records and the space's event
   log. *)

module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

(* Telemetry handles: process-global, no-ops (one branch) while
   telemetry is disabled.  Only runs with [log] on count here. *)
let m_expansions = Metrics.counter "space.expansions"
let m_transitions = Metrics.counter "space.transitions"
let m_digest_hits = Metrics.counter "space.digest_hits"
let m_admitted = Metrics.counter "space.admitted"

type stats = {
  configurations : int; (* distinct configurations admitted *)
  transitions : int; (* actions fired *)
  max_frontier : int; (* peak size of the queue *)
  finals : int; (* configurations with every process terminated *)
  deadlocks : int; (* non-final configurations with nothing enabled *)
  errors : int; (* error configurations (runtime failures) *)
}

let pp_stats ppf s =
  Format.fprintf ppf
    "configurations=%d transitions=%d max_frontier=%d finals=%d \
     deadlocks=%d errors=%d"
    s.configurations s.transitions s.max_frontier s.finals s.deadlocks
    s.errors

(* Terminal configurations classified so far. *)
type 'c terminals = {
  mutable finals : 'c list;
  mutable deadlocks : 'c list;
  mutable errors : 'c list;
}

let no_terminals () = { finals = []; deadlocks = []; errors = [] }

(* The operations of a state space.  [intern p c] is the key of [c] and
   the configuration the run keeps for it: [c] rebuilt from the pools
   (plain data, so a kernel state marshals), or the one already
   recorded under that key.  Every successor is interned with
   [~parent]: the kept configuration it was fired from and that one's
   key, so a space can reuse what the action did not change; only an
   initial configuration is interned without.  [classify ctx t c]
   records a terminal [c] in [t] and returns [[]], else the actions
   enabled at [c].  [fire] returns a list: an abstract action may
   branch both ways.  On a revisit, [merge] folds the offered successor
   into the configuration recorded under its key, and is true when that
   one grew and must be expanded again.  [events] is what one
   transition performed, or what a whole run did ([logged]). *)
module type SPACE = sig
  type ctx
  type config
  type action
  type key

  module Tbl : Hashtbl.S with type key = key

  type pools

  val new_pools : ctx -> pools
  val intern : pools -> ?parent:config * key -> config -> config * key
  val pool_sizes : pools -> (string * int) list

  type events
  type log

  val new_log : unit -> log
  val record : log -> events -> unit
  val logged : log -> events
  val init : ctx -> config
  val classify : ctx -> config terminals -> config -> action list
  val fire : ctx -> config -> action -> config list * events
  val merge : ctx -> into:config -> config -> bool
end

(* The log of a space whose transitions record nothing. *)
module No_log = struct
  type events = unit
  type log = unit

  let new_log () = ()
  let record () () = ()
  let logged () = ()
end

module Make (S : SPACE) = struct
  type result = {
    stats : stats;
    status : Budget.status;
        (* [Complete], or [Truncated reason] when a budget was
           exhausted: the other fields then hold the partial result *)
    final_configs : S.config list;
    deadlock_configs : S.config list;
    error_configs : S.config list;
    log : S.events;
  }

  (* The truncation drain: classify the admitted-but-unpopped frontier
     (no expansion, no new transitions, no admissions) into a copy of
     [t], so terminal configurations sitting in the queue still count;
     without it every one of them would count as a configuration but
     none as a terminal.  [t] itself is left as it was.  [visit] runs
     once per drained entry with what [classify] returned. *)
  let drain ?(visit = fun _ _ _ -> ()) ctx t entries =
    let t = { finals = t.finals; deadlocks = t.deadlocks; errors = t.errors } in
    Seq.iter (fun (c, a) -> visit c a (S.classify ctx t c)) entries;
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

  (* The part of an expansion a configuration budget cut short: the
     successor that was refused admission and the actions that never
     fired.  An action's later successors are not kept: only abstract
     actions have several, and abstract runs never resume. *)
  type 'a remainder = {
    r_config : S.config; (* the configuration being expanded *)
    r_key : S.key; (* its key *)
    r_refused : S.config * 'a; (* its refused successor, already fired *)
    r_actions : (S.action * 'a) list; (* its actions still to fire *)
  }

  (* The state between two pops.  It is plain data, pools included, so
     Checkpoint marshals it as is and a resumed run continues with the
     same pools and keys. *)
  type 'a state = {
    interner : S.pools; (* every admitted configuration is kept from them *)
    visited : 'a S.Tbl.t; (* every admitted key with its annotation *)
    queue : (S.config * S.key * 'a) Queue.t;
        (* the frontier, front first: each admitted configuration with
           its key, the parent its successors are interned from *)
    terminals : S.config terminals; (* classified popped configurations *)
    mutable transitions : int;
    mutable max_frontier : int;
    events : S.log;
    mutable remainder : 'a remainder option;
        (* set when the budget stopped the run in the middle of an
           expansion; [generate] finishes it before its first pop, so a
           resumed run fires exactly what the uninterrupted run did *)
  }

  (* A fresh state with fresh pools: the initial configuration admitted
     and queued with annotation [a]. *)
  let start ctx a =
    let interner = S.new_pools ctx in
    let visited = S.Tbl.create 1024 and queue = Queue.create () in
    let c0, k0 = S.intern interner (S.init ctx) in
    S.Tbl.replace visited k0 a;
    Queue.add (c0, k0, a) queue;
    {
      interner;
      visited;
      queue;
      terminals = no_terminals ();
      transitions = 0;
      max_frontier = 0;
      events = S.new_log ();
      remainder = None;
    }

  (* The admission policy of every run but the sleep-set one: a
     revisit is queued again only when [merge] grew it. *)
  let no_revisits _ _ = None

  (* Full expansion: fire every enabled action. *)
  let all_actions _ () actions = List.map (fun a -> (a, ())) actions

  (* [generate ~site ~admit ~expand ctx st] runs the BFS from [st]
     (first finishing its [remainder]) until the frontier is empty or
     the budget stops it.  Its parameters:

     - the annotation ['a] kept with each admitted key;
     - [expand c a enabled]: the actions to fire at the popped
       non-terminal [c], a subset of [enabled], each with the annotation
       its successors are offered under;
     - [admit recorded offered] on a revisit, after [merge]: [Some a]
       re-records the key with [a] and queues it again; [None] queues
       it again only when [merge] grew it ([no_revisits]);
     - [visit c a enabled] runs once per popped or drained queue entry,
       with [enabled = []] at terminals: [stats.configurations] times
       when nothing is queued twice;
     - [boundary st] runs after the budget check and before each pop,
       with the state a resumed run would restart from.

     [site] names the fault site [<site>.pop] and the journal events
     [<site>.progress] (every [Journal.progress_every] pops) and
     [<site>.done].  [log] (default [true]) records the events and
     counts the run in the [space.*] metrics.  The budget is [budget],
     or one bounding the keys to [max_configs] (default one million).
     Never raises on exhaustion: the partial result is tagged
     [Truncated _], with the frontier classified by [drain]; [st] then
     holds the pre-drain state. *)
  let generate ?(max_configs = 1_000_000) ?budget ?(visit = fun _ _ _ -> ())
      ?(boundary = ignore) ?(log = true) ~site ~admit ~expand ctx st : result
      =
    let budget =
      match budget with Some b -> b | None -> Budget.create ~max_configs ()
    in
    let pop_site = site ^ ".pop" in
    let configurations () = S.Tbl.length st.visited in
    let stop = ref None in
    let pops = ref 0 in
    (* Fire [(action, annotation)] pairs at [c], whose key is [k], in
       order; break out as soon as the budget stops the run: the
       remaining actions must not fire, or transitions and event logs
       inflate past the stop. *)
    let rec fire_each c k = function
      | [] -> ()
      | (action, a') :: rest ->
          st.transitions <- st.transitions + 1;
          if log then Metrics.incr m_transitions;
          let succs, evs = S.fire ctx c action in
          if log then S.record st.events evs;
          offer c k succs a' rest
    (* Admit the successors of one action of [c] in turn, kept from the
       pools with [c] as their parent, then fire [rest].  When the
       budget refuses one, the state keeps it and [rest] as the
       remainder of [c]'s expansion, for a resumed run to finish. *)
    and offer c k succs a' rest =
      match succs with
      | [] -> fire_each c k rest
      | c' :: more ->
          let pooled, k' = S.intern st.interner ~parent:(c, k) c' in
          (match S.Tbl.find_opt st.visited k' with
          | Some recorded -> (
              let grew = S.merge ctx ~into:pooled c' in
              match admit recorded a' with
              | Some merged ->
                  S.Tbl.replace st.visited k' merged;
                  Queue.add (pooled, k', merged) st.queue
              | None when grew -> Queue.add (pooled, k', recorded) st.queue
              | None -> if log then Metrics.incr m_digest_hits)
          | None -> (
              match Budget.config_guard budget ~configs:(configurations ()) with
              | Some r ->
                  stop := Some r;
                  st.remainder <-
                    Some
                      {
                        r_config = c;
                        r_key = k;
                        r_refused = (c', a');
                        r_actions = rest;
                      }
              | None ->
                  if log then Metrics.incr m_admitted;
                  S.Tbl.replace st.visited k' a';
                  Queue.add (pooled, k', a') st.queue));
          if !stop = None then offer c k more a' rest
    in
    Option.iter
      (fun r ->
        st.remainder <- None;
        offer r.r_config r.r_key [ fst r.r_refused ] (snd r.r_refused)
          r.r_actions)
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
              ~pools:(S.pool_sizes st.interner) ~budget
              [ ("pops", Journal.Int !pops) ];
          if log then Metrics.incr m_expansions;
          st.max_frontier <- max st.max_frontier (Queue.length st.queue);
          let c, k, a = Queue.pop st.queue in
          let enabled = S.classify ctx st.terminals c in
          visit c a enabled;
          match enabled with
          | [] -> ()
          | _ -> fire_each c k (expand c a enabled))
    done;
    let terminals =
      if !stop = None then st.terminals
      else
        drain ~visit ctx st.terminals
          (Seq.map (fun (c, _, a) -> (c, a)) (Queue.to_seq st.queue))
    in
    if Journal.enabled () then
      Journal.emit (site ^ ".done")
        [
          ("configurations", Journal.Int (configurations ()));
          ("transitions", Journal.Int st.transitions);
          ("complete", Journal.Bool (!stop = None));
        ];
    assemble ~status:(Budget.status_of !stop)
      ~configurations:(configurations ()) ~transitions:st.transitions
      ~max_frontier:st.max_frontier ~log:(S.logged st.events) terminals
end
