(* Stubborn-set (persistent-set) reduction for programs — the paper's
   Algorithm 1, generalized from Overman's method:

     "At each expansion step, let r_i and w_i be the set of locations to
      be read and written in process i's next actions ..."

   Construction.  Build a graph over ALL live processes: an (undirected)
   edge connects i and j whenever i's next-action footprint conflicts with
   the may-access of j's entire remaining continuation, or vice versa.
   Every connected component C containing an enabled process is a
   persistent set: for any process i in C and j outside C, nothing j (or
   anything j can ever do) does conflicts with or disables i's pending
   action, so actions outside C commute with C's actions.  We expand the
   component with the fewest enabled processes.

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

(* Union-find over process indices. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  go i

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(ri) <- rj

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
      let procs = Array.of_list (Config.processes c) in
      let n = Array.length procs in
      let store = c.Config.store in
      let footprints =
        Array.map (fun p -> Step.action_footprint ctx c p) procs
      in
      let futures = Array.map (fun p -> Mayaccess.of_process mctx p) procs in
      let parent = Array.init n (fun i -> i) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if
            Mayaccess.conflicts_footprint store footprints.(i) futures.(j)
            || Mayaccess.conflicts_footprint store footprints.(j) futures.(i)
          then union parent i j
        done
      done;
      let enabled_pids = List.map (fun p -> p.Proc.pid) enabled in
      let is_enabled i =
        List.exists
          (fun pid -> Value.compare_pid pid procs.(i).Proc.pid = 0)
          enabled_pids
      in
      (* components of the data-conflict graph *)
      let components = Hashtbl.create 8 in
      for i = 0 to n - 1 do
        let r = find parent i in
        let old = try Hashtbl.find components r with Not_found -> [] in
        Hashtbl.replace components r (i :: old)
      done;
      let index_of_pid pid =
        let found = ref (-1) in
        Array.iteri
          (fun k p ->
            if Value.compare_pid p.Proc.pid pid = 0 then found := k)
          procs;
        !found
      in
      (* A candidate persistent set must be closed under *enabling*: a
         process waiting at a join inside the set is enabled by the
         termination of its children, so the children (with their own
         conflict components) must be inside too.  This closure is
         directed — a child in the set does not drag its parent in. *)
      let closure_of seed_root =
        let in_set = Array.make n false in
        let work = Queue.create () in
        let add_component root =
          List.iter
            (fun i ->
              if not in_set.(i) then begin
                in_set.(i) <- true;
                Queue.add i work
              end)
            (try Hashtbl.find components root with Not_found -> [])
        in
        add_component seed_root;
        while not (Queue.is_empty work) do
          let i = Queue.pop work in
          match procs.(i).Proc.stack with
          | Proc.Ijoin { children; _ } :: _ ->
              List.iter
                (fun child ->
                  let j = index_of_pid child in
                  if j >= 0 && not in_set.(j) then
                    add_component (find parent j))
                children
          | _ -> ()
        done;
        let members = ref [] in
        Array.iteri (fun i b -> if b then members := i :: !members) in_set;
        !members
      in
      (* evaluate the closure of each component containing an enabled
         process; pick the one firing the fewest enabled processes *)
      let best = ref None in
      let roots =
        Hashtbl.fold (fun root members acc -> (root, members) :: acc) components []
        |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
      in
      List.iter
        (fun (root, members) ->
          if List.exists is_enabled members then begin
            let closed = closure_of root in
            let enabled_members = List.filter is_enabled closed in
            let k = List.length enabled_members in
            if k > 0 then
              match !best with
              | Some (_, k') when k' <= k -> ()
              | _ -> best := Some (enabled_members, k)
          end)
        roots;
      let chosen =
        match !best with
        | Some (members, _) -> List.map (fun i -> procs.(i)) members
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
  Space.explore ?max_configs ?budget ctx
    ~expand:(choose_expansion ?stats mctx ctx)
