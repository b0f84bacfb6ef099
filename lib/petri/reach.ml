(* Reachability-graph generation for nets: ordinary (full) expansion and
   stubborn-set expansion.  The stubborn closure follows Valmari's rules
   for place/transition nets:

     - every *enabled* member t must drag in all transitions sharing an
       input place with t (they could disable t, or be disabled by it);
     - every *disabled* member t must drag in all producers of one chosen
       insufficiently marked input place (its "scapegoat": only they can
       enable t);
     - the set must contain an enabled transition (the key transition).

   Firing only the enabled members of a stubborn set at each step preserves
   all deadlocks and, for our experiments, the set of reachable terminal
   markings — while visiting far fewer intermediate markings. *)

type stats = {
  states : int;
  edges : int;
  deadlocks : int;
  max_frontier : int;
}

type result = {
  stats : stats;
  status : Budget.status;
  deadlock_markings : Net.marking list;
}

let pp_stats ppf s =
  Format.fprintf ppf "states=%d edges=%d max_frontier=%d deadlocks=%d"
    s.states s.edges s.max_frontier s.deadlocks

(* Full-width marking hash: every place's token count contributes.
   The generic [Hashtbl.hash (Array.to_list m)] it replaces inspected
   only the first ~10 places, so markings of any real net collapsed
   into collision chains. *)
module MarkingTbl = Hashtbl.Make (struct
  type t = Net.marking

  let equal = ( = )
  let hash (m : Net.marking) = Cobegin_hash.hash_int_array m
end)

(* Markings as a state space of the exploration kernel: a marking is
   its own key, transitions fire one successor and log nothing, and a
   marking with nothing enabled is a deadlock. *)
module Markings = struct
  type ctx = Net.t
  type config = Net.marking
  type action = Net.transition
  type key = Net.marking

  module Tbl = MarkingTbl

  type pools = unit

  let new_pools _ = ()
  let intern () ?parent:_ m = (m, m)
  let pool_sizes () = []

  include Kernel.No_log

  let init = Net.initial_marking

  let classify net (t : Net.marking Kernel.terminals) m =
    match Net.enabled_transitions net m with
    | [] ->
        t.deadlocks <- m :: t.deadlocks;
        []
    | enabled -> enabled

  let fire _ m t = ([ Net.fire m t ], ())
  let merge _ ~into:_ _ = false
end

module K = Kernel.Make (Markings)

(* Generation under an expansion strategy: [expand m enabled] returns
   the transitions to fire at marking [m], a subset of the transitions
   [enabled] there.  Budget exhaustion stops the generation cleanly:
   the partial marking graph is returned tagged [Truncated], with the
   queued deadlocks drained in. *)
let explore ?(max_states = 10_000_000) ?budget net ~expand =
  let r =
    K.generate ~max_configs:max_states ?budget ~log:false ~site:"reach"
      ~admit:K.no_revisits
      ~expand:(fun m () enabled -> K.all_actions m () (expand m enabled))
      net (K.start net ())
  in
  {
    status = r.K.status;
    stats =
      {
        states = r.K.stats.configurations;
        edges = r.K.stats.transitions;
        deadlocks = r.K.stats.deadlocks;
        max_frontier = r.K.stats.max_frontier;
      };
    deadlock_markings = r.K.deadlock_configs;
  }

let full ?max_states ?budget net =
  explore ?max_states ?budget net ~expand:(fun _ enabled -> enabled)

(* Stubborn closure from a seed transition.  Returns the tids in the
   closure.  [scapegoat] picks, for a disabled transition, one input place
   with too few tokens; we choose the one with the fewest producers to keep
   the closure small. *)
let closure net idx (m : Net.marking) ~seed =
  let in_set = Array.make (Net.num_transitions net) false in
  let work = Queue.create () in
  let add tid =
    if not (in_set.(tid)) then begin
      in_set.(tid) <- true;
      Queue.add tid work
    end
  in
  add seed;
  while not (Queue.is_empty work) do
    let tid = Queue.pop work in
    let t = Net.transition net tid in
    if Net.enabled m t then
      (* conflicting transitions: share an input place *)
      List.iter
        (fun (p, _) -> List.iter add idx.Net.consumers.(p))
        t.pre
    else begin
      (* scapegoat: an insufficiently marked input place w/ fewest producers *)
      let candidates =
        List.filter (fun (p, w) -> m.(p) < w) t.pre
      in
      match candidates with
      | [] -> assert false (* t is disabled, so some place lacks tokens *)
      | _ ->
          let best, _ =
            List.fold_left
              (fun (bp, bn) (p, _) ->
                let n = List.length idx.Net.producers.(p) in
                if n < bn then (p, n) else (bp, bn))
              (-1, max_int) candidates
          in
          List.iter add idx.Net.producers.(best)
    end
  done;
  let result = ref [] in
  Array.iteri (fun tid b -> if b then result := tid :: !result) in_set;
  !result

(* Pick the stubborn set with the fewest enabled transitions among the
   closures seeded at each enabled transition. *)
let stubborn_expand net idx (m : Net.marking) enabled =
  match enabled with
  | [] -> []
  | _ ->
      let best = ref None in
      List.iter
        (fun (t : Net.transition) ->
          let c = closure net idx m ~seed:t.tid in
          let fired =
            List.filter_map
              (fun tid ->
                let t' = Net.transition net tid in
                if Net.enabled m t' then Some t' else None)
              c
          in
          match !best with
          | Some (_, n) when n <= List.length fired -> ()
          | _ -> best := Some (fired, List.length fired))
        enabled;
      (match !best with Some (fired, _) -> fired | None -> [])

let stubborn ?max_states ?budget net =
  let idx = Net.build_indices net in
  explore ?max_states ?budget net ~expand:(stubborn_expand net idx)
