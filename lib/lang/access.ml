(* The syntactic access model: which procedures a call may invoke, what
   one atomic action reads and writes, and everything a statement may
   still do.  Every static analysis reads it from here: the stubborn-set
   engine's may-access of continuations (paper, Algorithm 1), the
   critical references of virtual coarsening (Definition 4), the MHP
   sites, the lint and the transforms.

   Accesses are in terms of:

     - variable *names* (the semantics resolves them against the process
       environment to locations; names that resolve to nothing denote
       future, hence fresh, locations and cannot conflict);
     - a memory token: "may read through a pointer" / "may write through a
       pointer or free".  Heap cells and address-taken variables are
       covered by the token.

   Procedure bodies touch only their own (fresh) locals plus memory via
   pointers, so a procedure's externally visible effects are just its two
   memory flags, closed over the call graph. *)

open Ast
module SS = Ast.StringSet

type summary = {
  rvars : SS.t;
  wvars : SS.t;
  mem_read : bool;
  mem_write : bool;
}

let empty = { rvars = SS.empty; wvars = SS.empty; mem_read = false; mem_write = false }

let union a b =
  {
    rvars = SS.union a.rvars b.rvars;
    wvars = SS.union a.wvars b.wvars;
    mem_read = a.mem_read || b.mem_read;
    mem_write = a.mem_write || b.mem_write;
  }

let reads_of_expr e =
  {
    empty with
    rvars = SS.of_list (expr_vars e);
    mem_read = expr_derefs e;
  }

let writes_of_lvalue = function
  | Lvar x -> { empty with wvars = SS.singleton x }
  | Lderef e -> union (reads_of_expr e) { empty with mem_write = true }

(* --- one atomic action --- *)

(* Footprint of [s] as one atomic action, mirroring the dynamic
   granularity of [Step.action_footprint]: if/while conditions are
   charged to the branching statement, a whole [atomic] block is one
   action, and a call reads its callee and arguments and writes its
   destination (the fall-through return writes it there). *)
let rec action (s : stmt) : summary =
  match s.kind with
  | Sskip | Sfence | Sblock _ | Scobegin _ | Sreturn None -> empty
  | Sdecl (_, e) (* the declared cell is fresh *)
  | Sreturn (Some e)
  | Sassert e | Sawait e
  | Sif (e, _, _)
  | Swhile (e, _) ->
      reads_of_expr e
  | Sassign (lv, e) | Smalloc (lv, e) ->
      union (writes_of_lvalue lv) (reads_of_expr e)
  | Sfree e -> union (reads_of_expr e) { empty with mem_write = true }
  | Scall (dest, callee, args) ->
      List.fold_left
        (fun acc e -> union acc (reads_of_expr e))
        (union (reads_of_expr callee)
           (match dest with Some lv -> writes_of_lvalue lv | None -> empty))
        args
  | Sacquire x -> { empty with rvars = SS.singleton x; wvars = SS.singleton x }
  | Srelease x -> { empty with wvars = SS.singleton x }
  | Satomic ss -> List.fold_left (fun acc s' -> union acc (action s')) empty ss

(* await / lock / unlock / fence: synchronization contends by design *)
let is_sync (s : stmt) =
  match s.kind with
  | Sawait _ | Sacquire _ | Srelease _ | Sfence -> true
  | _ -> false

(* [action] over every action of [s], plus [call s'] at each statement
   [s'] (what a call adds besides its own action).  Names a declaration
   inside [s] binds are left out (their cells are fresh); a declaration
   scopes over the rest of its block, and an [atomic] block scopes its
   own declarations. *)
let scoped ~call (s : stmt) : summary =
  let free bound a =
    { a with rvars = SS.diff a.rvars bound; wvars = SS.diff a.wvars bound }
  in
  let rec go (bound, acc) (s : stmt) =
    let acc =
      match s.kind with
      | Satomic _ -> acc (* its statements are taken one by one, below *)
      | _ -> union acc (free bound (union (action s) (call s)))
    in
    let inner acc s' = snd (go (bound, acc) s') in
    match s.kind with
    | Sdecl (x, _) -> (SS.add x bound, acc)
    | Sblock ss | Satomic ss -> (bound, snd (List.fold_left go (bound, acc) ss))
    | Scobegin ss -> (bound, List.fold_left inner acc ss)
    | Sif (_, s1, s2) -> (bound, inner (inner acc s1) s2)
    | Swhile (_, s1) -> (bound, inner acc s1)
    | _ -> (bound, acc)
  in
  snd (go (SS.empty, empty) s)

(* --- the call graph --- *)

type t = {
  procs : SS.t;
  declared : SS.t; (* names some declaration or parameter uses *)
  proc_callees : (string, SS.t) Hashtbl.t;
  effects : (string, summary) Hashtbl.t; (* memory flags only *)
}

(* A direct callee [f] resolves to [f] only when the name can never be
   shadowed by a variable (no declaration or parameter anywhere uses it);
   otherwise, and for every computed callee, the call may invoke any
   procedure (coarse but sound). *)
let callees t (s : stmt) =
  match s.kind with
  | Scall (_, Evar f, _) when SS.mem f t.procs && not (SS.mem f t.declared) ->
      SS.singleton f
  | Scall _ -> t.procs
  | _ -> SS.empty

let proc_callees t f =
  Option.value ~default:SS.empty (Hashtbl.find_opt t.proc_callees f)

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

let effects t f = Option.value ~default:empty (Hashtbl.find_opt t.effects f)

let memory a = { empty with mem_read = a.mem_read; mem_write = a.mem_write }

let of_program (prog : program) : t =
  let declared =
    fold_program
      (fun acc s ->
        match s.kind with Sdecl (x, _) -> SS.add x acc | _ -> acc)
      (List.fold_left
         (fun acc p -> SS.union acc (SS.of_list p.params))
         SS.empty prog.procs)
      prog
  in
  let t =
    {
      procs = SS.of_list (List.map (fun p -> p.pname) prog.procs);
      declared;
      proc_callees = Hashtbl.create 16;
      effects = Hashtbl.create 16;
    }
  in
  List.iter
    (fun p ->
      Hashtbl.replace t.proc_callees p.pname
        (fold_stmt (fun acc s -> SS.union acc (callees t s)) SS.empty p.body))
    prog.procs;
  (* each body's own memory flags, then their join over everything the
     procedure reaches *)
  let own = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace own p.pname
        (memory (scoped ~call:(fun _ -> empty) p.body)))
    prog.procs;
  List.iter
    (fun p ->
      Hashtbl.replace t.effects p.pname
        (SS.fold
           (fun g acc -> union acc (Hashtbl.find own g))
           (reach_procs (proc_callees t) (SS.singleton p.pname))
           empty))
    prog.procs;
  t

(* Everything the subtree [s] may do: its actions, plus the effects of
   every procedure each of its calls may invoke. *)
let summary t (s : stmt) : summary =
  scoped s ~call:(fun s ->
      SS.fold (fun f acc -> union acc (effects t f)) (callees t s) empty)
