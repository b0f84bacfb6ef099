(* Stubborn-set (persistent-set) reduction for programs — the paper's
   Algorithm 1, generalized from Overman's method:

     "At each expansion step, let r_i and w_i be the set of locations to
      be read and written in process i's next actions ..."

   Construction.  Over ALL live processes, a directed conflict relation:
   k -> j whenever k's next-action footprint fp(k) conflicts with the
   may-access Fut(j) of j's entire remaining continuation.  From each
   enabled seed grow the least set closed under -> and under
   join-enabling (a member waiting at a join pulls in its live
   children).  Every such closure S is a persistent set: for p in S and
   j outside S, nothing j (or anything j can ever do) does conflicts
   with, enables or disables p's pending action, so actions outside S
   commute with S's.  We fire the enabled members of the closure with
   the fewest of them, ties going to the lowest seed index.  Only this
   one direction is needed: that j's *next* action touches what p will
   touch *later* does not put j in S (proof: docs/INTERNALS.md §1).

   Guarantees: all final configurations and all deadlocks of the full
   graph are found (classic persistent-set preservation).  Error
   configurations reachable only through ignored interleavings of
   *diverging* processes may be missed; use the full strategy for error
   search.  On programs with locality (the paper's Figure 5) the reduction
   collapses the interleaving of local prefixes entirely. *)

open Cobegin_semantics
module Metrics = Cobegin_obs.Metrics

(* Telemetry: size distribution of the chosen persistent sets, plus the
   totals the reduction ratio is computed from.  No-ops (one branch)
   while telemetry is disabled. *)
let h_set_size = Metrics.histogram "stubborn.set_size"
let m_enabled_total = Metrics.counter "stubborn.enabled_total"
let m_chosen_total = Metrics.counter "stubborn.chosen_total"

type reduction_stats = {
  mutable singleton_expansions : int; (* steps where one process sufficed *)
  mutable component_expansions : int; (* steps with a proper subset *)
  mutable full_expansions : int; (* steps that degenerated to full *)
}

let new_stats () =
  { singleton_expansions = 0; component_expansions = 0; full_expansions = 0 }

(* The live processes of [c] (in pid order) and their directed conflict
   relation: [conflict.(k).(j)] when k's next action conflicts with j's
   future. *)
let conflicts mctx ctx (c : Config.t) =
  let procs = Array.of_list (Config.processes c) in
  let store = c.Config.store in
  let futures = Array.map (Mayaccess.of_process mctx) procs in
  let conflict =
    Array.mapi
      (fun k p ->
        let fp = Step.action_footprint ctx c p in
        Array.mapi
          (fun j fut -> j <> k && Mayaccess.conflicts_footprint store fp fut)
          futures)
      procs
  in
  (procs, conflict)

let index_of procs pid =
  let rec go i =
    if i = Array.length procs then None
    else if Value.compare_pid procs.(i).Proc.pid pid = 0 then Some i
    else go (i + 1)
  in
  go 0

(* Membership, by process index, of the least set holding [seed] that is
   closed under the conflict relation and under join-enabling. *)
let grow procs conflict seed =
  let in_set = Array.make (Array.length procs) false in
  let rec add i =
    if not in_set.(i) then begin
      in_set.(i) <- true;
      Array.iteri (fun j c -> if c then add j) conflict.(i);
      match procs.(i).Proc.stack with
      | Proc.Ijoin { children; _ } :: _ ->
          List.iter (fun ch -> Option.iter add (index_of procs ch)) children
      | _ -> ()
    end
  in
  add seed;
  in_set

let closure mctx ctx c (seed : Proc.t) =
  let procs, conflict = conflicts mctx ctx c in
  match index_of procs seed.Proc.pid with
  | None -> []
  | Some i ->
      let in_set = grow procs conflict i in
      List.filteri (fun j _ -> in_set.(j)) (Array.to_list procs)

let choose_procs ?stats mctx ctx (c : Config.t) (enabled : Proc.t list) :
    Proc.t list =
  match enabled with
  | [] -> []
  | [ _ ] ->
      Option.iter (fun s -> s.singleton_expansions <- s.singleton_expansions + 1)
        stats;
      if Metrics.enabled () then begin
        Metrics.observe h_set_size 1;
        Metrics.add m_enabled_total 1;
        Metrics.add m_chosen_total 1
      end;
      enabled
  | _ ->
      let procs, conflict = conflicts mctx ctx c in
      let is_enabled =
        Array.map
          (fun p ->
            List.exists
              (fun q -> Value.compare_pid p.Proc.pid q.Proc.pid = 0)
              enabled)
          procs
      in
      (* the closure of each enabled seed, in index order; a closure
         with one enabled member (its seed) cannot be beaten *)
      let best = ref None in
      Array.iteri
        (fun i e ->
          match !best with
          | Some (1, _) -> ()
          | _ when not e -> ()
          | _ -> (
              let in_set = grow procs conflict i in
              let k = ref 0 in
              Array.iteri
                (fun j b -> if b && is_enabled.(j) then incr k)
                in_set;
              match !best with
              | Some (k', _) when k' <= !k -> ()
              | _ -> best := Some (!k, in_set)))
        is_enabled;
      (* highest pid first, the order the expansion has always fired
         in: sleep sets depend on it *)
      let chosen =
        match !best with
        | Some (_, in_set) ->
            let chosen = ref [] in
            Array.iteri
              (fun j p ->
                if in_set.(j) && is_enabled.(j) then chosen := p :: !chosen)
              procs;
            !chosen
        | None -> enabled
      in
      Option.iter
        (fun s ->
          if List.length chosen = List.length enabled then
            s.full_expansions <- s.full_expansions + 1
          else if List.length chosen = 1 then
            s.singleton_expansions <- s.singleton_expansions + 1
          else s.component_expansions <- s.component_expansions + 1)
        stats;
      if Metrics.enabled () then begin
        Metrics.observe h_set_size (List.length chosen);
        Metrics.add m_enabled_total (List.length enabled);
        Metrics.add m_chosen_total (List.length chosen)
      end;
      chosen

(* The may-access conflict analysis above reasons about statement-level
   actions only: it does not see the pending flushes of a store buffer,
   which conflict with every future access of their locations.  Under
   TSO/PSO we therefore degenerate to full expansion — sound, no
   reduction — and count every such step as a full expansion. *)
let choose_expansion ?stats mctx ctx (c : Config.t)
    (actions : Step.action list) : Step.action list =
  match ctx.Step.model with
  | Step.Sc ->
      let enabled =
        List.filter_map
          (function Step.Arun p -> Some p | Step.Aflush _ -> None)
          actions
      in
      List.map (fun p -> Step.Arun p) (choose_procs ?stats mctx ctx c enabled)
  | Step.Tso | Step.Pso ->
      (match actions with
      | [] -> ()
      | _ ->
          Option.iter
            (fun s -> s.full_expansions <- s.full_expansions + 1)
            stats;
          if Metrics.enabled () then begin
            let k = List.length actions in
            Metrics.observe h_set_size k;
            Metrics.add m_enabled_total k;
            Metrics.add m_chosen_total k
          end);
      actions

(* Stubborn-set exploration of a program. *)
let explore ?max_configs ?budget ?stats ctx : Space.result =
  let mctx = Mayaccess.make_ctx ctx.Step.prog in
  Space.generate ?max_configs ?budget ~site:"space" ~admit:Space.no_revisits
    ~expand:(fun c () enabled ->
      Space.all_actions c () (choose_expansion ?stats mctx ctx c enabled))
    ctx (Space.start ctx ())
