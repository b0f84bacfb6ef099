(* Multi-domain state-space generation (OCaml 5 domains).

   Same contract as Space.full — breadth-ish generation of the full
   interleaving configuration graph — but the work is spread over
   [jobs] domains:

     - the visited set is sharded: [num_shards] mutex-protected
       Digest_tbl shards, a configuration's shard picked by its
       full-width digest hash, so admission of distinct configurations
       almost never contends on the same lock;
     - each worker owns a mutex-protected work queue and steals from
       the others (round-robin scan) when its own runs dry;
     - one interner, created shared for the run, serves every worker,
       so a configuration one worker admits is rebuilt from the pools
       the others' successors hit; a work item carries its digest, and
       its successors are interned from it (Config.intern ~parent), so
       a worker takes the pools' mutex only for what an action changed;
     - each worker keeps its own terminals and event log, merged after
       the join;
     - global progress — admitted configurations, fired transitions,
       queued frontier, the truncation latch — lives in Atomic cells.

   Determinism: for a run that COMPLETES, every reachable configuration
   is admitted exactly once (the shard mutex serializes the
   mem/guard/add sequence), and expansion is a pure function of the
   configuration, so the visited set, the configuration and transition
   counts and the terminal-configuration multisets are independent of
   the schedule — identical to the sequential engine's.  The terminal
   lists are sorted by canonical representation after the join so even
   their order is reproducible (pool ids are not: workers intern in
   schedule order).  The merged event log holds the same distinct
   events as the sequential engine's.  One caveat, documented in the
   mli: [max_frontier] is schedule-dependent (a parallel frontier peaks
   differently).

   Truncated runs are a best effort: the budget latch (Budget shared
   mode) guarantees the truncation fires once with one recorded
   reason, but which configurations got admitted before the trip is
   schedule-dependent, and admission can overshoot the configuration
   budget by at most one per in-flight domain (the guard reads the
   global count outside its own shard's critical section). *)

open Cobegin_semantics
module Metrics = Cobegin_obs.Metrics
module Span = Cobegin_obs.Span
module Journal = Cobegin_obs.Journal

exception
  Worker_failed of { domain : int; cause : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Worker_failed { domain; cause; backtrace = _ } ->
        Some
          (Printf.sprintf "parallel worker %d failed: %s" domain
             (Printexc.to_string cause))
    | _ -> None)

let m_transitions = Metrics.counter "parallel.transitions"
let m_digest_hits = Metrics.counter "parallel.digest_hits"
let m_admitted = Metrics.counter "parallel.admitted"
let m_steals = Metrics.counter "parallel.steals"
let g_jobs = Metrics.gauge "parallel.jobs"

(* Power of two so the shard index is a mask of the digest hash. *)
let num_shards = 64

type shard = { s_lock : Mutex.t; s_tbl : unit Config.Digest_tbl.t }

let shard_of shards d =
  shards.(Config.digest_hash d land (num_shards - 1))

(* Per-worker deque of admitted configurations with their digests
   (plain FIFO under a mutex; pops and steals both take from the front
   — BFS-ish order, which keeps the frontier shallow like the
   sequential engine's). *)
type wq = { q_lock : Mutex.t; q : (Config.t * Config.digest) Queue.t }

let wq_push w item = Mutex.protect w.q_lock (fun () -> Queue.add item w.q)
let wq_pop w = Mutex.protect w.q_lock (fun () -> Queue.take_opt w.q)

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then
    atomic_max cell v

(* Per-worker accumulators: mutated only by the owning domain, read by
   the main domain after the join. *)
type acc = { terminals : Config.t Kernel.terminals; log : Step.log }

let new_acc () = { terminals = Kernel.no_terminals (); log = Step.new_log () }

(* Schedule-independent terminal lists: sorted by the canonical
   representation, which does not depend on the order in which the
   workers filled the pools. *)
let sort_canonical cs =
  List.map (fun c -> (Config.repr c, c)) cs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let full ?(max_configs = 1_000_000) ?budget ?spans ~jobs ctx : Space.result =
  if jobs <= 1 then Space.full ~max_configs ?budget ctx
  else begin
    let budget =
      match budget with
      | Some b -> b
      | None -> Budget.create ~max_configs ~shared:true ()
    in
    Metrics.set g_jobs jobs;
    let shards =
      Array.init num_shards (fun _ ->
          { s_lock = Mutex.create (); s_tbl = Config.Digest_tbl.create 64 })
    in
    let queues =
      Array.init jobs (fun _ -> { q_lock = Mutex.create (); q = Queue.create () })
    in
    let accs = Array.init jobs (fun _ -> new_acc ()) in
    let admitted = Atomic.make 0 in
    let transitions = Atomic.make 0 in
    let pending = Atomic.make 0 in (* enqueued + in-process *)
    let queued = Atomic.make 0 in (* enqueued only: the frontier *)
    let max_frontier = Atomic.make 0 in
    let stop : Budget.reason option Atomic.t = Atomic.make None in
    let latch r =
      ignore (Atomic.compare_and_set stop None (Some r) : bool)
    in
    (* Failure latch: the first escaping exception of any worker, with
       its domain and backtrace.  Setting it makes [stopping] true, so
       the siblings — including any spinning in the steal loop on a
       [pending] count the dead worker can no longer balance — drain
       out and join instead of hanging. *)
    let failed : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let stopping () =
      Atomic.get stop <> None || Atomic.get failed <> None
    in
    (* One interner for the run, shared by the workers: a configuration
       admitted by one worker is rebuilt from the same pools another
       worker's successors hit. *)
    let interner = Intern.create ~shared:true () in
    (* Seed: admit the initial configuration on worker 0. *)
    let c0, d0 = Config.intern interner (Step.init ctx) in
    Config.Digest_tbl.replace (shard_of shards d0).s_tbl d0 ();
    Atomic.incr admitted;
    Atomic.incr pending;
    Atomic.incr queued;
    atomic_max max_frontier 1;
    wq_push queues.(0) (c0, d0);
    let worker w () =
      let acc = accs.(w) in
      let my = queues.(w) in
      (* Pop from my queue, else steal; spin (cpu_relax) while work is
         still in flight elsewhere; return None when the whole run is
         drained (pending = 0) or stopped. *)
      let rec next () =
        if stopping () then None
        else
          match wq_pop my with
          | Some item ->
              Atomic.decr queued;
              Some item
          | None ->
              let rec scan k =
                if k >= jobs then None
                else
                  match wq_pop queues.((w + k) mod jobs) with
                  | Some item ->
                      Atomic.decr queued;
                      Metrics.incr m_steals;
                      Some item
                  | None -> scan (k + 1)
              in
              (match scan 1 with
              | Some item -> Some item
              | None ->
                  if Atomic.get pending = 0 then None
                  else begin
                    Domain.cpu_relax ();
                    next ()
                  end)
      in
      let process (c, d) =
        match Space.Instance.classify ctx acc.terminals c with
        | [] -> ()
        | enabled ->
            let rec fire_each = function
              | [] -> ()
              | a :: rest ->
                  Atomic.incr transitions;
                  Metrics.incr m_transitions;
                  let c', evs = Step.fire_action ctx c a in
                  Step.record acc.log evs;
                  let c', d' = Config.intern interner ~parent:(c, d) c' in
                  let shard = shard_of shards d' in
                  let verdict =
                    Mutex.protect shard.s_lock (fun () ->
                        if Config.Digest_tbl.mem shard.s_tbl d' then `Dup
                        else
                          match
                            Budget.config_guard budget
                              ~configs:(Atomic.get admitted)
                          with
                          | Some r -> `Stop r
                          | None ->
                              Config.Digest_tbl.replace shard.s_tbl d' ();
                              Atomic.incr admitted;
                              `Fresh)
                  in
                  (match verdict with
                  | `Dup -> Metrics.incr m_digest_hits
                  | `Stop r -> latch r
                  | `Fresh ->
                      Metrics.incr m_admitted;
                      Atomic.incr pending;
                      atomic_max max_frontier
                        (Atomic.fetch_and_add queued 1 + 1);
                      wq_push my (c', d'));
                  if Atomic.get stop = None then fire_each rest
            in
            fire_each enabled
      in
      (* worker 0 alone reports progress, sampled like the kernel's *)
      let pops = ref 0 in
      let rec loop () =
        if not (stopping ()) then begin
          if w = 0 then begin
            incr pops;
            if Journal.enabled () && !pops mod Journal.progress_every = 0
            then
              Journal.progress "parallel"
                ~configurations:(Atomic.get admitted)
                ~frontier:(Atomic.get queued)
                ~transitions:(Atomic.get transitions)
                ~pools:(Intern.sizes interner) ~budget []
          end;
          match
            Budget.check budget ~configs:(Atomic.get admitted)
              ~transitions:(Atomic.get transitions)
          with
          | Some r -> latch r
          | None -> (
              match next () with
              | None -> ()
              | Some item ->
                  Fault.worker_pop w;
                  process item;
                  Atomic.decr pending;
                  loop ())
        end
      in
      (* An exception escaping the loop body (a bug in expansion, an
         injected fault) leaves [pending] unbalanced for the popped
         configuration; without the failure latch the siblings would
         spin on [pending > 0] forever.  Latch the first failure —
         [stopping] then drains everyone — and let the main domain
         re-raise it after the join.  Each worker runs inside its own
         span (one "tid" lane per domain in the trace export) and
         journals its start/finish, so a flight-recorder dump shows
         which workers were alive when something died. *)
      let run () =
        if Journal.enabled () then
          Journal.emit "parallel.worker_start" [ ("worker", Journal.Int w) ];
        match loop () with
        | () ->
            if Journal.enabled () then
              Journal.emit "parallel.worker_done"
                [ ("worker", Journal.Int w) ]
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            if Journal.enabled () then
              Journal.emit ~level:Journal.Error "parallel.worker_failed"
                [
                  ("worker", Journal.Int w);
                  ("diagnostic", Journal.Str (Printexc.to_string e));
                ];
            ignore
              (Atomic.compare_and_set failed None (Some (w, e, bt)) : bool)
      in
      match spans with
      | None -> run ()
      | Some t -> Span.with_span t (Printf.sprintf "worker%d" w) run
    in
    let domains = Array.init jobs (fun w -> Domain.spawn (worker w)) in
    Array.iter Domain.join domains;
    (match Atomic.get failed with
    | Some (domain, cause, bt) ->
        Printexc.raise_with_backtrace
          (Worker_failed
             {
               domain;
               cause;
               backtrace = Printexc.raw_backtrace_to_string bt;
             })
          bt
    | None -> ());
    let merged = Kernel.no_terminals () in
    Array.iter
      (fun { terminals = t; _ } ->
        merged.finals <- t.finals @ merged.finals;
        merged.deadlocks <- t.deadlocks @ merged.deadlocks;
        merged.errors <- t.errors @ merged.errors)
      accs;
    (* Each configuration was admitted (and so enqueued) exactly once,
       hence drained at most once. *)
    let t =
      if Atomic.get stop = None then merged
      else
        Space.drain ctx merged
          (Seq.concat_map
             (fun wq -> Seq.map (fun (c, _) -> (c, ())) (Queue.to_seq wq.q))
             (Array.to_seq queues))
    in
    t.finals <- sort_canonical t.finals;
    t.deadlocks <- sort_canonical t.deadlocks;
    t.errors <- sort_canonical t.errors;
    let log = Step.new_log () in
    Array.iter (fun a -> Step.absorb ~into:log a.log) accs;
    Space.assemble
      ~status:(Budget.status_of (Atomic.get stop))
      ~configurations:(Atomic.get admitted)
      ~transitions:(Atomic.get transitions)
      ~max_frontier:(Atomic.get max_frontier)
      ~log:(Step.logged log) t
  end

