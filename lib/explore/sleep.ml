(* Sleep-set reduction (Godefroid), the classic complement to
   persistent/stubborn sets from the same partial-order-reduction line
   the paper builds on (section 2.2 / related work).

   Where stubborn sets cut the *branching* at a configuration, sleep sets
   cut *revisits through commuting permutations*: after exploring the
   transition of process p at configuration c, the sibling exploration of
   q's transition carries p in its sleep set as long as p's action
   commutes with everything executed since — firing a sleeping process
   would only rediscover a permutation of an explored interleaving.

   We implement the standard combination: at each configuration take the
   persistent set from [Stubborn.choose_expansion], then prune it with
   the inherited sleep set; the successor's sleep set keeps the earlier
   siblings whose footprints are independent of the fired action.

   Sleep sets preserve deadlocks and final configurations like persistent
   sets do; together they typically reduce *transitions* well below the
   stubborn-only count (the harness's E3/E7 tables report both). *)

open Cobegin_semantics
module LS = Value.LocSet
module Metrics = Cobegin_obs.Metrics

(* Telemetry: transitions skipped because the process slept.  No-op (one
   branch) while telemetry is disabled. *)
let m_pruned = Metrics.counter "sleep.pruned"

(* Independence of two concrete footprints: no location conflicts. *)
let independent (f1 : Step.footprint) (f2 : Step.footprint) =
  LS.is_empty (LS.inter f1.Step.fwrites (LS.union f2.Step.freads f2.Step.fwrites))
  && LS.is_empty (LS.inter f2.Step.fwrites f1.Step.freads)

type stats = {
  mutable pruned_by_sleep : int; (* transitions skipped thanks to sleep *)
  mutable explored_transitions : int;
}

let new_stats () = { pruned_by_sleep = 0; explored_transitions = 0 }

module PidSet = Set.Make (struct
  type t = Value.pid

  let compare = Value.compare_pid
end)

type sleep = PidSet.t

let awake = PidSet.empty

(* The expansion of persistent sets + sleep sets: the persistent set at
   [c], minus the processes asleep there, each fired action carrying the
   sleep set its successor is offered under. *)
let expansion ?stats ctx =
  let mctx = Mayaccess.make_ctx ctx.Step.prog in
  (* The sleep-set bookkeeping tracks processes by pid, which is only
     meaningful while a process has exactly one action alternative —
     under TSO/PSO a pid covers both a statement step and buffer
     flushes, so sleep pruning is disabled there (sleep sets stay
     empty; the stubborn layer already degenerated to full expansion). *)
  let sc = ctx.Step.model = Step.Sc in
  fun c sleep enabled ->
    let chosen = Stubborn.choose_expansion mctx ctx c enabled in
    let awake =
      if sc then
        List.filter (fun a -> not (PidSet.mem (Step.action_pid a) sleep)) chosen
      else chosen
    in
    let pruned = List.length chosen - List.length awake in
    Option.iter
      (fun s -> s.pruned_by_sleep <- s.pruned_by_sleep + pruned)
      stats;
    if Metrics.enabled () then Metrics.add m_pruned pruned;
    (* successor sleeps: inherited sleepers still independent of the
       fired action, plus earlier awake siblings independent of it (SC
       only — see above); if everything chosen is asleep the state is
       fully covered by earlier permutations: nothing fires *)
    let keep_sleeping fp_a pid =
      match Config.find_proc pid c with
      | None -> false
      | Some q -> independent fp_a (Step.action_footprint ctx c q)
    in
    let rec annotate earlier = function
      | [] -> []
      | a :: rest ->
          let fp_a = Step.action_footprint_of ctx c a in
          let sleep' =
            if not sc then PidSet.empty
            else
              PidSet.union
                (PidSet.filter (keep_sleeping fp_a) sleep)
                (PidSet.of_list
                   (List.filter_map
                      (fun (b, fb) ->
                        if independent fp_a fb then Some (Step.action_pid b)
                        else None)
                      earlier))
          in
          (a, sleep') :: annotate ((a, fp_a) :: earlier) rest
    in
    annotate [] awake

(* The visited table maps a configuration to the sleep set it was first
   reached with; a revisit with a *smaller* sleep set must be
   re-expanded (standard sleep set algorithm), which we approximate by
   re-expanding when the recorded set is not a subset of the new one. *)
let admit recorded sleep' =
  if PidSet.subset recorded sleep' then None
  else Some (PidSet.inter recorded sleep')

let explore ?max_configs ?budget ?stats ctx : Space.result =
  let r =
    Space.generate ?max_configs ?budget ~site:"sleep" ~admit
      ~expand:(expansion ?stats ctx) ctx (Space.start ctx awake)
  in
  Option.iter
    (fun s ->
      s.explored_transitions <-
        s.explored_transitions + r.Space.stats.Space.transitions)
    stats;
  r
