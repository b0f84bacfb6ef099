(* Eraser-style lockset analysis over [Sacquire]/[Srelease].

   Three per-label facts are computed by a flow-sensitive walk of every
   procedure body, iterated with an interprocedural context to a
   fixpoint:

     - [must_held l]: locks definitely held when the action at [l]
       fires, on every path (intersection at joins, shrinking loop
       fixpoint), including locks inherited from an enclosing process
       that held them at the fork;
     - [may_held l]: locks possibly held (union at joins, growing
       fixpoint) — the basis of the lock-order graph in [Deadlock];
     - [local_must_held l]: the subset of [must_held] acquired by the
       executing process itself since its own fork (reset to empty at
       every cobegin branch entry and procedure entry).

   Lock identity is by name, which is only meaningful for *stable*
   locks: declared exactly once, in the entry procedure, never a
   parameter, never address-taken, with the entry procedure itself
   never called.  Such a name denotes one cell for the whole run.
   Procedure bodies can only name their own parameters and locals
   ([Check] enforces this), so callees can never acquire or release a
   stable lock directly, and not being address-taken rules out pointer
   writes — the interprocedural context therefore only carries stable
   locks, and intra-procedural transfer is exact for them.

   A pair of MHP sites is *suppressed* (not reported as a static race)
   when both sides hold a common *eligible* lock acquired by their own
   process after the generating fork.  Eligible = stable, and every
   release of the lock anywhere is performed by a process that itself
   holds it ([local_must_held] at the release site) — otherwise a
   stray [unlock] could break mutual exclusion and the suppression
   would be unsound.  Locks merely held at the fork protect the
   branches against outsiders but not against each other, hence the
   subtraction of the fork-point lockset. *)

open Cobegin_lang
open Ast
module SS = Ast.StringSet

type race = { r_stmt1 : int; r_stmt2 : int; r_ww : bool; r_what : string }

type t = {
  mhp : Mhp.t;
  stable : SS.t;
  eligible : SS.t;
  must : (int, SS.t) Hashtbl.t;
  may : (int, SS.t) Hashtbl.t;
  local_must : (int, SS.t) Hashtbl.t;
  mutable suppressed : race list option;
      (* [races] with lock suppression, once enumerated *)
}

let find_set tbl l =
  match Hashtbl.find_opt tbl l with Some s -> s | None -> SS.empty

let mhp t = t.mhp
let must_held t l = find_set t.must l
let may_held t l = find_set t.may l
let local_must_held t l = find_set t.local_must l
let stable t = t.stable
let eligible t = t.eligible

(* --- stable locks --- *)

let stable_locks (prog : Ast.program) ~(callable : SS.t) : SS.t =
  match prog.procs with
  | [] -> SS.empty
  | _ ->
      let entry = Ast.entry_proc prog in
      if SS.mem entry.pname callable then SS.empty
      else
        let addr_taken = Ast.addr_taken_of_program prog in
        let params =
          List.fold_left
            (fun acc p -> SS.union acc (SS.of_list p.params))
            SS.empty prog.procs
        in
        let decl_count = Hashtbl.create 16 in
        ignore
          (fold_program
             (fun () s ->
               match s.kind with
               | Sdecl (x, _) ->
                   Hashtbl.replace decl_count x
                     (1 + Option.value ~default:0 (Hashtbl.find_opt decl_count x))
               | _ -> ())
             () prog);
        let entry_decls =
          fold_stmt
            (fun acc s ->
              match s.kind with Sdecl (x, _) -> SS.add x acc | _ -> acc)
            SS.empty entry.body
        in
        SS.filter
          (fun x ->
            Hashtbl.find_opt decl_count x = Some 1
            && (not (SS.mem x params))
            && not (SS.mem x addr_taken))
          entry_decls

(* --- the flow analysis --- *)

type st = { m : SS.t; y : SS.t; lm : SS.t }
(* must / may / process-local must, all "held on entry to the next action" *)

let st_equal a b = SS.equal a.m b.m && SS.equal a.y b.y && SS.equal a.lm b.lm

let analyze (mhp : Mhp.t) : t =
  let prog = Mhp.program mhp in
  let callable = Mhp.callable_procs mhp in
  let stable = stable_locks prog ~callable in
  let must = Hashtbl.create 128 in
  let may = Hashtbl.create 128 in
  let local_must = Hashtbl.create 128 in
  let record l st =
    Hashtbl.replace must l st.m;
    Hashtbl.replace may l st.y;
    Hashtbl.replace local_must l st.lm
  in
  (* one pass over a statement; records every label's entry state *)
  let rec walk st (s : Ast.stmt) : st =
    record s.label st;
    match s.kind with
    | Sskip | Sassign _ | Smalloc _ | Sfree _ | Scall _ | Sreturn _
    | Sawait _ | Sassert _ | Sfence ->
        st
    | Sacquire x ->
        { m = SS.add x st.m; y = SS.add x st.y; lm = SS.add x st.lm }
    | Srelease x ->
        { m = SS.remove x st.m; y = SS.remove x st.y; lm = SS.remove x st.lm }
    | Sdecl (x, _) ->
        (* the name now denotes a fresh, unheld cell; the old cell may
           still be held, so [may] keeps it as an over-approximation *)
        { st with m = SS.remove x st.m; lm = SS.remove x st.lm }
    | Sblock ss | Satomic ss -> List.fold_left walk st ss
    | Sif (_, s1, s2) ->
        let a = walk st s1 and b = walk st s2 in
        { m = SS.inter a.m b.m; y = SS.union a.y b.y; lm = SS.inter a.lm b.lm }
    | Swhile (_, body) ->
        let rec fix st_in =
          let out = walk st_in body in
          let st_in' =
            {
              m = SS.inter st.m out.m;
              y = SS.union st.y out.y;
              lm = SS.inter st.lm out.lm;
            }
          in
          if st_equal st_in st_in' then st_in
          else (
            record s.label st_in';
            fix st_in')
        in
        fix st
    | Scobegin bs ->
        (* branches start with the inherited locks but an empty local
           set; after the join the parent conservatively keeps only
           locks surviving every branch *)
        let outs = List.map (fun b -> walk { st with lm = SS.empty } b) bs in
        let m' =
          List.fold_left (fun acc o -> SS.inter acc o.m)
            (match outs with o :: _ -> o.m | [] -> st.m)
            outs
        in
        {
          m = m';
          y = List.fold_left (fun acc o -> SS.union acc o.y) st.y outs;
          lm = SS.inter st.lm m';
        }
  in
  let entry_name =
    match prog.procs with [] -> "" | _ -> (Ast.entry_proc prog).pname
  in
  (* interprocedural context: locks (stable only) held at every call
     site that may invoke the procedure; descending for must, ascending
     for may *)
  let ctx_must = Hashtbl.create 16 and ctx_may = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace ctx_must p.pname stable;
      Hashtbl.replace ctx_may p.pname SS.empty)
    prog.procs;
  let call_sites = Mhp.call_sites mhp in
  let rec iterate n =
    List.iter
      (fun p ->
        let init =
          if p.pname = entry_name then
            { m = SS.empty; y = SS.empty; lm = SS.empty }
          else
            {
              m = find_set ctx_must p.pname;
              y = find_set ctx_may p.pname;
              lm = SS.empty;
            }
        in
        ignore (walk init p.body))
      prog.procs;
    let changed = ref false in
    List.iter
      (fun p ->
        if p.pname <> entry_name then begin
          let sites =
            List.filter
              (fun k -> SS.mem p.pname k.Mhp.k_callees)
              call_sites
          in
          let nm =
            match sites with
            | [] -> find_set ctx_must p.pname
            | _ ->
                SS.inter stable
                  (List.fold_left
                     (fun acc k -> SS.inter acc (find_set must k.Mhp.k_label))
                     stable sites)
          in
          let ny =
            SS.inter stable
              (List.fold_left
                 (fun acc k -> SS.union acc (find_set may k.Mhp.k_label))
                 SS.empty sites)
          in
          if
            (not (SS.equal nm (find_set ctx_must p.pname)))
            || not (SS.equal ny (find_set ctx_may p.pname))
          then begin
            changed := true;
            Hashtbl.replace ctx_must p.pname nm;
            Hashtbl.replace ctx_may p.pname ny
          end
        end)
      prog.procs;
    if !changed && n > 0 then iterate (n - 1)
  in
  iterate (List.length prog.procs * (1 + SS.cardinal stable) + 2);
  (* eligibility: every release of the lock is by a process that itself
     holds it — a stray unlock would void mutual exclusion *)
  let bad =
    fold_program
      (fun acc s ->
        match s.kind with
        | Srelease x
          when SS.mem x stable && not (SS.mem x (find_set local_must s.label))
          ->
            SS.add x acc
        | _ -> acc)
      SS.empty prog
  in
  {
    mhp;
    stable;
    eligible = SS.diff stable bad;
    must;
    may;
    local_must;
    suppressed = None;
  }

let of_program prog = analyze (Mhp.of_program prog)

(* Eligible locks the site's process holds, acquired since the context's
   fork: locks held at the fork are held by every branch at once. *)
let protection t (c : Mhp.context) (s : Mhp.site) =
  SS.inter (SS.diff (must_held t s.s_label) (must_held t c.c_label)) t.eligible

(* --- static races --- *)

let compare_race a b =
  compare
    (a.r_stmt1, a.r_stmt2, a.r_what, a.r_ww)
    (b.r_stmt1, b.r_stmt2, b.r_what, b.r_ww)

module RaceSet = Set.Make (struct
  type t = race

  let compare = compare_race
end)

let enumerate ~locks t =
  let add_race acc l1 l2 ~ww what =
    let a, b = if l1 <= l2 then (l1, l2) else (l2, l1) in
    RaceSet.add { r_stmt1 = a; r_stmt2 = b; r_ww = ww; r_what = what } acc
  in
  (* all conflicts between two sites, assuming disjoint locksets *)
  let conflicts acc (s1 : Mhp.site) (s2 : Mhp.site) =
    let open Mhp in
    let l1 = s1.s_label and l2 = s2.s_label in
    (* same-cell conflicts by name: only names bound before the fork *)
    let acc =
      SS.fold
        (fun x acc -> add_race acc l1 l2 ~ww:true x)
        (SS.inter s1.s_vw s2.s_vw) acc
    in
    let acc =
      SS.fold
        (fun x acc -> add_race acc l1 l2 ~ww:false x)
        (SS.diff
           (SS.union (SS.inter s1.s_vw s2.s_vr) (SS.inter s2.s_vw s1.s_vr))
           (SS.inter s1.s_vw s2.s_vw))
        acc
    in
    (* memory token vs memory token *)
    let acc =
      if
        (s1.s_mem_wr && (s2.s_mem_rd || s2.s_mem_wr))
        || (s2.s_mem_wr && s1.s_mem_rd)
      then add_race acc l1 l2 ~ww:(s1.s_mem_wr && s2.s_mem_wr) "memory"
      else acc
    in
    (* memory token vs address-taken names: a pointer access may reach
       any address-taken variable, in any scope *)
    let tok_vs_at acc (a : Mhp.site) (b : Mhp.site) =
      let acc =
        if a.s_mem_wr then
          SS.fold
            (fun x acc ->
              add_race acc a.s_label b.s_label ~ww:(SS.mem x b.s_aw) x)
            (SS.union b.s_ar b.s_aw) acc
        else acc
      in
      if a.s_mem_rd then
        SS.fold
          (fun x acc -> add_race acc a.s_label b.s_label ~ww:false x)
          b.s_aw acc
      else acc
    in
    tok_vs_at (tok_vs_at acc s1 s2) s2 s1
  in
  let set =
    List.fold_left
      (fun acc (c : Mhp.context) ->
        (* each branch's race candidates with their protection *)
        let guarded =
          List.map
            (fun (b : Mhp.branch) ->
              List.filter_map
                (fun (s : Mhp.site) ->
                  if s.s_sync then None
                  else Some (s, if locks then protection t c s else SS.empty))
                b.b_sites)
            c.c_branches
        in
        let rec cross acc = function
          | [] -> acc
          | b :: rest ->
              let acc =
                List.fold_left
                  (fun acc b' ->
                    List.fold_left
                      (fun acc (s1, p1) ->
                        List.fold_left
                          (fun acc (s2, p2) ->
                            if SS.disjoint p1 p2 then conflicts acc s1 s2
                            else acc)
                          acc b')
                      acc b)
                  acc rest
              in
              cross acc rest
        in
        cross acc guarded)
      RaceSet.empty (Mhp.contexts t.mhp)
  in
  RaceSet.elements set

let races ?(locks = true) t =
  if not locks then enumerate ~locks t
  else
    match t.suppressed with
    | Some rs -> rs
    | None ->
        let rs = enumerate ~locks t in
        t.suppressed <- Some rs;
        rs

let race_pairs rs =
  List.sort_uniq compare (List.map (fun r -> (r.r_stmt1, r.r_stmt2)) rs)

let pp_race ppf r =
  Format.fprintf ppf "%s race on %s between s%d and s%d"
    (if r.r_ww then "write/write" else "read/write")
    r.r_what r.r_stmt1 r.r_stmt2
