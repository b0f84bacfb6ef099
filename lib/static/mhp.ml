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

   The call graph and each statement's footprint come from [Access]:
   [Access.action] mirrors the dynamic action granularity of
   [Step.action_footprint] (a whole [atomic] block is one action at its
   own label, a call is charged its arguments, callee and destination).
   An explicit [return] is charged to the return label plus the
   destinations of the call sites that may invoke the procedure. *)

open Cobegin_lang
open Ast
module SS = Ast.StringSet

type site = {
  s_label : int;
  s_sync : bool; (* [Access.is_sync]: excluded from race candidates *)
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

type call_site = { k_label : int; k_callees : SS.t }

type t = {
  prog : Ast.program;
  access : Access.t;
  addr_taken : SS.t;
  contexts : context list;
  index : (int, (int * int) list) Hashtbl.t;
      (* label -> the (context, branch) indices of its sites *)
  call_sites : call_site list;
  callable : SS.t; (* procedures some call may invoke *)
}

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

(* --- sites --- *)

let mk_site ~visible ~addr_taken (s : Ast.stmt) : site =
  let a = Access.action s in
  {
    s_label = s.label;
    s_sync = Access.is_sync s;
    s_vr = SS.inter a.rvars visible;
    s_vw = SS.inter a.wvars visible;
    s_ar = SS.inter a.rvars addr_taken;
    s_aw = SS.inter a.wvars addr_taken;
    s_mem_rd = a.mem_read;
    s_mem_wr = a.mem_write;
  }

(* --- the analysis --- *)

(* a label's (context, branch) positions, most recent first *)
let positions index l = Option.value ~default:[] (Hashtbl.find_opt index l)

let of_program (prog : Ast.program) : t =
  let addr_taken = Ast.addr_taken_of_program prog in
  let access = Access.of_program prog in
  let call_sites =
    fold_program
      (fun acc s ->
        match s.kind with
        | Scall _ ->
            { k_label = s.label; k_callees = Access.callees access s } :: acc
        | _ -> acc)
      [] prog
  in
  let callable =
    List.fold_left
      (fun acc k -> SS.union acc k.k_callees)
      SS.empty call_sites
  in
  (* destinations written by returns of [f]: the dests of every call site
     that may invoke [f].  Split into names (by scope they are only
     meaningful to the caller, so cross-branch matching happens through
     the visible/addr-taken filters), the names a deref destination
     reads, and the memory token for deref destinations. *)
  let dest (s : Ast.stmt) =
    match s.kind with
    | Scall (Some lv, _, _) -> Access.writes_of_lvalue lv
    | _ -> Access.empty
  in
  let ret_dests f =
    List.fold_left
      (fun acc k ->
        if not (SS.mem f k.k_callees) then acc
        else
          match Ast.stmt_at prog k.k_label with
          | Some s -> Access.union acc (dest s)
          | None -> acc)
      Access.empty call_sites
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
        (fun acc s -> SS.union acc (Access.callees access s))
        SS.empty b
    in
    let reached = Access.reach_procs (Access.proc_callees access) seed in
    (* dests of call sites inside this branch, per callee: candidates for
       cross-branch name conflicts (the dest names live in the scope of
       the procedure containing the cobegin) *)
    let branch_dests f =
      fold_actions
        (fun acc s ->
          if SS.mem f (Access.callees access s) then Access.union acc (dest s)
          else acc)
        Access.empty b
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
                      let g = ret_dests f and here = branch_dests f in
                      let site = mk_site ~visible:SS.empty ~addr_taken s in
                      {
                        site with
                        s_vr = SS.inter here.rvars visible;
                        s_vw = SS.inter here.wvars visible;
                        s_ar = SS.union site.s_ar (SS.inter g.rvars addr_taken);
                        s_aw = SS.union site.s_aw (SS.inter g.wvars addr_taken);
                        s_mem_wr = site.s_mem_wr || g.mem_write;
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
  { prog; access; addr_taken; contexts; index; call_sites; callable }

let program t = t.prog
let access t = t.access
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
