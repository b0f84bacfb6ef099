(* May-Happen-in-Parallel, computed from the nested cobegin structure and
   the interprocedural call graph — no state-space exploration involved.

   Two labeled statements may happen in parallel iff some cobegin has two
   distinct branches such that each statement is reachable from one of
   them, where "reachable" closes over procedure calls (indirect calls
   over-approximate to every procedure).  A procedure reachable from two
   branches puts its statements in parallel with themselves.

   Each MHP pair is produced by a *context*: the generating cobegin, the
   names visible in scope at it, and the per-branch site sets.  Scope
   matters for precision without losing soundness: the language scopes
   procedure bodies to their own parameters and locals (see [Check]), so
   a variable cell can only be shared between two parallel processes if
   its binding predates the fork — i.e. the name is visible at the
   cobegin.  Name accesses are therefore split per site into

     - [s_vr]/[s_vw]: reads/writes of names visible at the generating
       cobegin (candidates for cross-branch conflicts by name);
     - [s_ar]/[s_aw]: reads/writes of address-taken names (candidates
       for conflicts against pointer accesses, in any scope);
     - [s_mem_rd]/[s_mem_wr]: the memory token — may read/write through
       a pointer, or free.  Concretizes to heap cells and address-taken
       variables, exactly like [Explore.Mayaccess].

   Statement footprints mirror the dynamic action granularity of
   [Step.action_footprint]: if/while conditions are charged to the
   branching statement, a whole [atomic] block to its own label (inner
   statements are not separate actions), a call to the call label
   (arguments plus the destination, which the fall-through return writes
   there), and an explicit [return] to the return label plus the
   destinations of the call sites that may invoke the procedure. *)

open Cobegin_lang
open Ast
module SS = Ast.StringSet

type site = {
  s_label : int;
  s_sync : bool; (* await / lock / unlock: excluded from race candidates *)
  s_vr : SS.t; (* reads of names visible at the generating cobegin *)
  s_vw : SS.t; (* writes of such names *)
  s_ar : SS.t; (* reads of address-taken names (any scope) *)
  s_aw : SS.t; (* writes of address-taken names (any scope) *)
  s_mem_rd : bool;
  s_mem_wr : bool;
}

type branch = { b_stmt : Ast.stmt; b_sites : site list }

type context = {
  c_label : int; (* the generating cobegin *)
  c_visible : SS.t; (* names in scope at the cobegin *)
  c_branches : branch list;
}

type call_site = { k_label : int; k_proc : string; k_callees : SS.t }

type t = {
  prog : Ast.program;
  addr_taken : SS.t;
  contexts : context list;
  index : (int, (int * int) list) Hashtbl.t;
      (* label -> the (context, branch) indices of its sites *)
  call_sites : call_site list;
  callable : SS.t; (* procedures some call may invoke *)
  proc_of_label : (int, string) Hashtbl.t;
}

(* --- syntactic name footprint of one action --- *)

type raw_fp = {
  frd : SS.t;
  fwr : SS.t;
  mem_rd : bool;
  mem_wr : bool;
  sync : bool;
}

let empty_fp =
  { frd = SS.empty; fwr = SS.empty; mem_rd = false; mem_wr = false; sync = false }

let fp_reads e fp =
  {
    fp with
    frd = SS.union fp.frd (SS.of_list (expr_vars e));
    mem_rd = fp.mem_rd || expr_derefs e;
  }

let fp_writes_lvalue lv fp =
  match lv with
  | Lvar x -> { fp with fwr = SS.add x fp.fwr }
  | Lderef e -> fp_reads e { fp with mem_wr = true }

(* Footprint of [s] as one atomic action; does not descend into
   sub-statements other than [atomic] bodies (those fire as one action). *)
let rec action_fp (s : Ast.stmt) : raw_fp =
  match s.kind with
  | Sskip | Sblock _ | Scobegin _ -> empty_fp
  | Sfence -> { empty_fp with sync = true }
  | Sdecl (_, e) -> fp_reads e empty_fp (* the declared cell is fresh *)
  | Sassign (lv, e) | Smalloc (lv, e) -> fp_writes_lvalue lv (fp_reads e empty_fp)
  | Sfree e -> fp_reads e { empty_fp with mem_wr = true }
  | Scall (dest, callee, args) ->
      let fp = List.fold_left (fun fp e -> fp_reads e fp) empty_fp args in
      let fp = fp_reads callee fp in
      (* the destination is written when the callee returns, charged here
         for the fall-through return (Race reports it at the call site) *)
      (match dest with Some lv -> fp_writes_lvalue lv fp | None -> fp)
  | Sreturn None -> empty_fp
  | Sreturn (Some e) -> fp_reads e empty_fp
  | Sif (c, _, _) | Swhile (c, _) -> fp_reads c empty_fp
  | Sawait e -> { (fp_reads e empty_fp) with sync = true }
  | Sacquire x ->
      { empty_fp with frd = SS.singleton x; fwr = SS.singleton x; sync = true }
  | Srelease x -> { empty_fp with fwr = SS.singleton x; sync = true }
  | Sassert e -> fp_reads e empty_fp
  | Satomic ss ->
      List.fold_left
        (fun fp s' ->
          let f = action_fp s' in
          {
            frd = SS.union fp.frd f.frd;
            fwr = SS.union fp.fwr f.fwr;
            mem_rd = fp.mem_rd || f.mem_rd;
            mem_wr = fp.mem_wr || f.mem_wr;
            sync = fp.sync;
          })
        empty_fp ss

(* Fold over the action statements of a subtree: like [Ast.fold_stmt] but
   atomic blocks are one action, so their inner statements are skipped. *)
let rec fold_actions f acc (s : Ast.stmt) =
  let acc = f acc s in
  match s.kind with
  | Sskip | Sdecl _ | Sassign _ | Smalloc _ | Sfree _ | Scall _ | Sreturn _
  | Sawait _ | Sacquire _ | Srelease _ | Sassert _ | Satomic _ | Sfence ->
      acc
  | Sblock ss | Scobegin ss -> List.fold_left (fold_actions f) acc ss
  | Sif (_, s1, s2) -> fold_actions f (fold_actions f acc s1) s2
  | Swhile (_, s1) -> fold_actions f acc s1

(* --- call graph --- *)

(* A direct callee [f] resolves to [f] only when the name can never be
   shadowed by a variable (no declaration or parameter anywhere uses it);
   otherwise, and for every computed callee, the call may invoke any
   procedure (coarse but sound). *)
let build_callgraph (prog : Ast.program) =
  let proc_names = SS.of_list (List.map (fun p -> p.pname) prog.procs) in
  let declared =
    fold_program
      (fun acc s ->
        match s.kind with Sdecl (x, _) -> SS.add x acc | _ -> acc)
      (List.fold_left
         (fun acc p -> SS.union acc (SS.of_list p.params))
         SS.empty prog.procs)
      prog
  in
  let callees_of_expr = function
    | Evar f when SS.mem f proc_names && not (SS.mem f declared) ->
        SS.singleton f
    | _ -> proc_names
  in
  let stmt_callees s =
    match s.kind with
    | Scall (_, callee, _) -> Some (callees_of_expr callee)
    | _ -> None
  in
  (stmt_callees, proc_names)

(* Transitive closure of procedure reachability from a seed set. *)
let reach_procs (proc_callees : string -> SS.t) seed =
  let rec go visited frontier =
    if SS.is_empty frontier then visited
    else
      let next =
        SS.fold
          (fun f acc -> SS.union acc (proc_callees f))
          frontier SS.empty
      in
      let fresh = SS.diff next visited in
      go (SS.union visited fresh) fresh
  in
  go seed seed

(* --- sites --- *)

let mk_site ~visible ~addr_taken (s : Ast.stmt) : site =
  let fp = action_fp s in
  {
    s_label = s.label;
    s_sync = fp.sync;
    s_vr = SS.inter fp.frd visible;
    s_vw = SS.inter fp.fwr visible;
    s_ar = SS.inter fp.frd addr_taken;
    s_aw = SS.inter fp.fwr addr_taken;
    s_mem_rd = fp.mem_rd;
    s_mem_wr = fp.mem_wr;
  }

(* --- the analysis --- *)

(* a label's (context, branch) positions, most recent first *)
let positions index l = Option.value ~default:[] (Hashtbl.find_opt index l)

let of_program (prog : Ast.program) : t =
  let addr_taken = Ast.addr_taken_of_program prog in
  let stmt_callees, _proc_names = build_callgraph prog in
  (* per-procedure direct callee sets and global call-site list *)
  let proc_of_label = Hashtbl.create 64 in
  List.iter
    (fun p ->
      ignore
        (fold_stmt
           (fun () s -> Hashtbl.replace proc_of_label s.label p.pname)
           () p.body))
    prog.procs;
  let call_sites =
    List.concat_map
      (fun p ->
        fold_stmt
          (fun acc s ->
            match stmt_callees s with
            | Some ks ->
                { k_label = s.label; k_proc = p.pname; k_callees = ks } :: acc
            | None -> acc)
          [] p.body)
      prog.procs
  in
  let proc_callees_tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let ks =
        fold_stmt
          (fun acc s ->
            match stmt_callees s with
            | Some ks -> SS.union acc ks
            | None -> acc)
          SS.empty p.body
      in
      Hashtbl.replace proc_callees_tbl p.pname ks)
    prog.procs;
  let proc_callees f =
    match Hashtbl.find_opt proc_callees_tbl f with
    | Some ks -> ks
    | None -> SS.empty
  in
  let callable =
    List.fold_left
      (fun acc k -> SS.union acc k.k_callees)
      SS.empty call_sites
  in
  (* destinations written by returns of [f]: the dests of every call site
     that may invoke [f].  Split into names (by scope they are only
     meaningful to the caller, so cross-branch matching happens through
     the visible/addr-taken filters) and the memory token for deref
     destinations. *)
  let ret_dests f =
    List.fold_left
      (fun (names, reads, memw) k ->
        if not (SS.mem f k.k_callees) then (names, reads, memw)
        else
          match Ast.stmt_at prog k.k_label with
          | Some { kind = Scall (Some (Lvar x), _, _); _ } ->
              (SS.add x names, reads, memw)
          | Some { kind = Scall (Some (Lderef e), _, _); _ } ->
              (names, SS.union reads (SS.of_list (expr_vars e)), true)
          | _ -> (names, reads, memw))
      (SS.empty, SS.empty, false)
      call_sites
  in
  let ret_dests_tbl = Hashtbl.create 16 in
  let ret_dests f =
    match Hashtbl.find_opt ret_dests_tbl f with
    | Some r -> r
    | None ->
        let r = ret_dests f in
        Hashtbl.replace ret_dests_tbl f r;
        r
  in
  (* site set of one branch: the branch's own action statements plus the
     statements of every procedure reachable from its calls *)
  let branch_sites ~visible (b : Ast.stmt) : site list =
    let direct =
      fold_actions (fun acc s -> mk_site ~visible ~addr_taken s :: acc) [] b
    in
    let seed =
      fold_actions
        (fun acc s ->
          match stmt_callees s with
          | Some ks -> SS.union acc ks
          | None -> acc)
        SS.empty b
    in
    let reached = reach_procs proc_callees seed in
    (* dests of call sites inside this branch, per callee: candidates for
       cross-branch name conflicts (the dest names live in the scope of
       the procedure containing the cobegin) *)
    let branch_dests f =
      fold_actions
        (fun ((names, reads) as acc) s ->
          match (s.kind, stmt_callees s) with
          | Scall (Some (Lvar x), _, _), Some ks when SS.mem f ks ->
              (SS.add x names, reads)
          | Scall (Some (Lderef e), _, _), Some ks when SS.mem f ks ->
              (names, SS.union reads (SS.of_list (expr_vars e)))
          | _ -> acc)
        (SS.empty, SS.empty) b
    in
    let interior =
      SS.fold
        (fun f acc ->
          match Ast.find_proc prog f with
          | None -> acc
          | Some p ->
              fold_actions
                (fun acc s ->
                  match s.kind with
                  | Sreturn _ ->
                      (* returns write the caller's destination: dests of
                         call sites in this branch are visible-scope
                         candidates; every call site that may invoke [f]
                         contributes the address-taken and memory-token
                         part *)
                      let g_names, g_reads, g_memw = ret_dests f in
                      let b_names, b_reads = branch_dests f in
                      let site = mk_site ~visible:SS.empty ~addr_taken s in
                      {
                        site with
                        s_vr = SS.inter b_reads visible;
                        s_vw = SS.inter b_names visible;
                        s_ar =
                          SS.union site.s_ar (SS.inter g_reads addr_taken);
                        s_aw =
                          SS.union site.s_aw (SS.inter g_names addr_taken);
                        s_mem_wr = site.s_mem_wr || g_memw;
                      }
                      :: acc
                  | _ -> mk_site ~visible:SS.empty ~addr_taken s :: acc)
                acc p.body)
        reached direct
    in
    interior
  in
  (* walk every procedure body, threading the visible scope exactly like
     [Check] does, and record a context per cobegin *)
  let contexts = ref [] in
  let rec walk scope (s : Ast.stmt) : SS.t =
    match s.kind with
    | Sskip | Sassign _ | Smalloc _ | Sfree _ | Scall _ | Sreturn _
    | Sawait _ | Sacquire _ | Srelease _ | Sassert _ | Sfence ->
        scope
    | Sdecl (x, _) -> SS.add x scope
    | Sblock ss | Satomic ss ->
        ignore (List.fold_left walk scope ss);
        scope
    | Sif (_, s1, s2) ->
        ignore (walk scope s1);
        ignore (walk scope s2);
        scope
    | Swhile (_, b) ->
        ignore (walk scope b);
        scope
    | Scobegin bs ->
        let branches =
          List.map
            (fun b -> { b_stmt = b; b_sites = branch_sites ~visible:scope b })
            bs
        in
        contexts :=
          { c_label = s.label; c_visible = scope; c_branches = branches }
          :: !contexts;
        List.iter (fun b -> ignore (walk scope b)) bs;
        scope
  in
  List.iter
    (fun p -> ignore (walk (SS.of_list p.params) p.body))
    prog.procs;
  let contexts = List.rev !contexts in
  (* the MHP relation as an index: every label's (context, branch)
     positions, each recorded once *)
  let index = Hashtbl.create 256 in
  List.iteri
    (fun ci c ->
      List.iteri
        (fun bi b ->
          List.iter
            (fun s ->
              match positions index s.s_label with
              | pos :: _ when pos = (ci, bi) -> ()
              | at -> Hashtbl.replace index s.s_label ((ci, bi) :: at))
            b.b_sites)
        c.c_branches)
    contexts;
  {
    prog;
    addr_taken;
    contexts;
    index;
    call_sites;
    callable;
    proc_of_label;
  }

let program t = t.prog
let contexts t = t.contexts

(* one context lists the two labels under distinct branches *)
let may_happen_parallel t l1 l2 =
  let at2 = positions t.index l2 in
  List.exists
    (fun (c1, b1) -> List.exists (fun (c2, b2) -> c1 = c2 && b1 <> b2) at2)
    (positions t.index l1)

let addr_taken t = t.addr_taken
let call_sites t = t.call_sites
let callable_procs t = t.callable
let proc_of_label t l = Hashtbl.find_opt t.proc_of_label l
