(* Thread-modular rely-guarantee interference analysis (Miné-style;
   PAPERS.md: "Static Analysis of Run-Time Errors in Embedded Real-Time
   Parallel C Programs").

   Each process of a cobegin is analyzed *sequentially*: every read of a
   shared variable joins in the current interference I(x) — the join of
   all values concurrent processes may write to x — and every write to a
   shared variable feeds I(x) back.  The ensemble (entry procedure plus
   every called procedure, summarized by joined argument/return values)
   is iterated to a fixpoint with widening, so the cost is polynomial in
   program size times fixpoint rounds where the explicit engines pay the
   interleaving explosion (paper section 2).

   Lock refinement: a shared variable whose cross-process accesses all
   happen under a common eligible lock (in the [Lockset] sense, relative
   to the generating fork) is *protected*.  Reads and writes made while
   holding the lock see/feed no interference; instead the value at each
   [unlock] accumulates into a per-variable *lock invariant* that is
   re-imported at each [lock].  This both models mutual exclusion
   soundly (a value written inside a critical section can only be
   observed by others after the release that publishes it) and makes
   lock-based critical-section assertions provable.

   Pointer accesses are flow-insensitive: one abstract value accumulates
   every pointer-mediated write ([i_at]), one the heap (malloc cells are
   0-initialized), and dereference reads join them with the accumulated
   values of every address-taken variable.  Coarse, but sound and cheap.

   Soundness contract (checked corpus-wide in test/test_interfere.ml and
   CI): on every model the explicit engines can finish, every concrete
   reachable store binding is contained in the abstract per-variable
   results ([check] returns the violations; it must return none). *)

open Cobegin_lang
open Cobegin_domains
module Mhp = Cobegin_static.Mhp
module Lockset = Cobegin_static.Lockset
module Value = Cobegin_semantics.Value
module SS = Ast.StringSet
module SM = Map.Make (String)
module IM = Map.Make (Int)
module IS = Set.Make (Int)
module Obs_metrics = Cobegin_obs.Metrics
module Obs_journal = Cobegin_obs.Journal

(* Telemetry handles, shared across functor instantiations. *)
let m_rounds = Obs_metrics.counter "interfere.rounds"
let m_widenings = Obs_metrics.counter "interfere.widenings"
let m_visits = Obs_metrics.counter "interfere.stmt_visits"
let g_ivars = Obs_metrics.gauge "interfere.interference_vars"

(* Fixpoint rounds (and loop-head iterations) before joins become
   widenings, and the rounds after which a run stops as [Fuel]. *)
let widen_after = 2
let max_rounds = 200

type verdicts = {
  assert_may_fail : int list;
  never_proceeds : int list;
  error_sites : int list;
  races : Lockset.race list;
}

let pp_labels ppf = function
  | [] -> ()
  | ls ->
      Format.fprintf ppf " (%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           (fun ppf l -> Format.fprintf ppf "s%d" l))
        ls

let pp_verdicts ppf v =
  Format.fprintf ppf
    "@[<v>asserts-may-fail: %d%a@,never-proceeds: %d%a@,error-sites: %d%a@,race-candidates: %d@]"
    (List.length v.assert_may_fail)
    pp_labels v.assert_may_fail
    (List.length v.never_proceeds)
    pp_labels v.never_proceeds
    (List.length v.error_sites)
    pp_labels v.error_sites (List.length v.races)

(* What every functor instantiation reports (fields documented in the
   .mli). *)
type summary = {
  domain : Analyzer.domain;
  locksets : bool;
  rounds : int;
  widenings : int;
  stmt_visits : int;
  status : Budget.status;
  shared : string list;
  protected_ : (string * string) list;
  interference : (string * string) list;
  bindings : (string * string) list;
  reachable : int list;
  verdicts : verdicts;
  check : (Value.loc * Value.t) list -> (Value.loc * Value.t) list;
}

(* --- shared variables and lock protection, from the MHP contexts --- *)

(* Per-branch (accesses, writes) of cobegin-visible names. *)
let branch_footprints (ctx : Mhp.context) =
  List.map
    (fun (b : Mhp.branch) ->
      List.fold_left
        (fun (r, w) (s : Mhp.site) ->
          ( SS.union r (SS.union s.Mhp.s_vr s.Mhp.s_vw),
            SS.union w s.Mhp.s_vw ))
        (SS.empty, SS.empty) b.Mhp.b_sites)
    ctx.Mhp.c_branches

(* Names written by one branch and accessed by a distinct branch. *)
let cross_shared (ctx : Mhp.context) =
  let fps = branch_footprints ctx in
  let rec cross acc = function
    | [] -> acc
    | (r1, w1) :: rest ->
        let acc =
          List.fold_left
            (fun acc (r2, w2) ->
              SS.union acc (SS.union (SS.inter w1 r2) (SS.inter w2 r1)))
            acc rest
        in
        cross acc rest
  in
  cross SS.empty fps

let compute_shared mhp =
  List.fold_left
    (fun acc ctx -> SS.union acc (cross_shared ctx))
    SS.empty (Mhp.contexts mhp)

(* A variable is protected by lock [l] when every site of every context
   in which it is cross-shared accesses it holding [l], with [l] eligible
   and acquired by the accessing process itself after the generating fork
   ([Lockset.protection], the rule [Lockset.races] suppresses by).
   Address-taken variables are never protected — a pointer write can
   bypass any locking discipline. *)
let compute_protection ls ~shared ~addr_taken =
  let eligible = Lockset.eligible ls in
  if SS.is_empty eligible then (SM.empty, SM.empty)
  else begin
    let prot = ref SM.empty in
    let constrain x locks =
      prot :=
        SM.update x
          (function None -> Some locks | Some cur -> Some (SS.inter cur locks))
          !prot
    in
    List.iter
      (fun (ctx : Mhp.context) ->
        let cross =
          SS.inter (cross_shared ctx) (SS.diff shared addr_taken)
        in
        if not (SS.is_empty cross) then
          List.iter
            (fun (b : Mhp.branch) ->
              List.iter
                (fun (s : Mhp.site) ->
                  let touched =
                    SS.inter (SS.union s.Mhp.s_vr s.Mhp.s_vw) cross
                  in
                  if not (SS.is_empty touched) then
                    let p = Lockset.protection ls ctx s in
                    SS.iter (fun x -> constrain x p) touched)
                b.Mhp.b_sites)
            ctx.Mhp.c_branches)
      (Mhp.contexts (Lockset.mhp ls));
    SM.fold
      (fun x locks (by_var, by_lock) ->
        if SS.is_empty locks then (by_var, by_lock)
        else
          let l = SS.min_elt locks in
          ( SM.add x l by_var,
            SM.update l
              (function
                | None -> Some (SS.singleton x) | Some s -> Some (SS.add x s))
              by_lock ))
      !prot (SM.empty, SM.empty)
  end

(* --- the per-domain engine --- *)

module Make (N : Lattice.NUMERIC) = struct
  (* One abstract value per cell: [Aval]'s product with may-be-pointer /
     may-be-procedure flags — mirrors the concrete [Value.t] sum. *)
  module V = Aval.Make (N) (Aval.Flag) (Aval.Flag)

  type aval = V.t = { num : N.t; bool3 : Bool3.t; ptrs : bool; funs : bool }

  let pp_aval ppf v =
    if V.is_bottom v then Format.pp_print_string ppf "_|_"
    else begin
      let first = ref true in
      let sep () =
        if !first then first := false else Format.pp_print_string ppf "|"
      in
      if not (N.is_bottom v.num) then begin
        sep ();
        N.pp ppf v.num
      end;
      (match v.bool3 with
      | Bool3.Bot -> ()
      | b ->
          sep ();
          Format.fprintf ppf "bool:%a" Bool3.pp b);
      if v.ptrs then begin
        sep ();
        Format.pp_print_string ppf "ptr"
      end;
      if v.funs then begin
        sep ();
        Format.pp_print_string ppf "fn"
      end
    end

  type state = Bot | St of aval SM.t

  let sm_get m x = match SM.find_opt x m with Some v -> v | None -> V.bottom

  let st_join s1 s2 =
    match (s1, s2) with
    | Bot, x | x, Bot -> x
    | St m1, St m2 ->
        St (SM.union (fun _ v1 v2 -> Some (V.join v1 v2)) m1 m2)

  let st_leq s1 s2 =
    match (s1, s2) with
    | Bot, _ -> true
    | St _, Bot -> false
    | St m1, St m2 ->
        SM.for_all
          (fun x v ->
            match SM.find_opt x m2 with Some v2 -> V.leq v v2 | None -> false)
          m1

  (* Static context of one analysis. *)
  type info = {
    prog : Ast.program;
    ls : Lockset.t;
    shared : SS.t;
    at : SS.t; (* address-taken names *)
    prot : string SM.t; (* protected variable -> its lock *)
    prot_by : SS.t SM.t; (* lock -> the variables it protects *)
    cands : SS.t IM.t; (* call label -> candidate procedures *)
  }

  (* Mutable cross-process accumulators, iterated to a fixpoint. *)
  type acc = {
    mutable interf : aval SM.t; (* interference per shared variable *)
    mutable inv : aval SM.t; (* lock invariant per protected variable *)
    mutable i_at : aval; (* every pointer-mediated write *)
    mutable heap : aval; (* malloc cells (0-initialized) *)
    mutable vals : aval SM.t; (* every value each name's cells ever hold *)
    mutable args : aval array SM.t; (* per-procedure argument summaries *)
    mutable rets : aval SM.t; (* per-procedure return summaries *)
    mutable called : SS.t;
    mutable reach : IS.t; (* abstractly reachable labels (record pass) *)
    mutable visits : int;
    mutable dirty : bool;
    mutable widenings : int;
    mutable wround : bool; (* widen accumulator joins this round *)
    mutable v_assert : IS.t;
    mutable v_never : IS.t;
    mutable v_error : IS.t;
  }

  let init_acc () =
    {
      interf = SM.empty;
      inv = SM.empty;
      i_at = V.bottom;
      heap = V.bottom;
      vals = SM.empty;
      args = SM.empty;
      rets = SM.empty;
      called = SS.empty;
      reach = IS.empty;
      visits = 0;
      dirty = false;
      widenings = 0;
      wround = false;
      v_assert = IS.empty;
      v_never = IS.empty;
      v_error = IS.empty;
    }

  (* Join [v] into an accumulator cell, marking the round dirty on growth
     and widening the chain once the widening rounds begin. *)
  let bump c old_ v =
    if V.leq v old_ then old_
    else begin
      c.dirty <- true;
      if c.wround then begin
        c.widenings <- c.widenings + 1;
        Obs_metrics.incr m_widenings;
        V.widen old_ (V.join old_ v)
      end
      else V.join old_ v
    end

  let bump_map c m x v =
    let old_ = sm_get m x in
    let nv = bump c old_ v in
    if nv == old_ then m else SM.add x nv m

  let holding a label lock = SS.mem lock (Lockset.must_held a.ls label)

  (* Read of a name: shared variables join their interference (and, for
     protected variables read without the lock, the lock invariant);
     address-taken variables additionally join every pointer write. *)
  let read_var a c label m x =
    match SM.find_opt x m with
    | None -> if Ast.has_proc a.prog x then V.of_funs true else V.bottom
    | Some v ->
        let v =
          if SS.mem x a.shared then
            match SM.find_opt x a.prot with
            | Some l when holding a label l -> v
            | Some _ -> V.join v (V.join (sm_get c.interf x) (sm_get c.inv x))
            | None -> V.join v (sm_get c.interf x)
          else v
        in
        if SS.mem x a.at then V.join v c.i_at else v

  (* Write of a name: strong update of the local state; shared variables
     feed the interference unless written inside their own critical
     section (those values are published by [Srelease] via the lock
     invariant instead).  Every written value is recorded in [vals] for
     the soundness oracle.  [br] = lexically inside a cobegin branch —
     the entry procedure's code outside every cobegin never runs in
     parallel with the branches, so its writes are not interference. *)
  let write_var a c ~br label m x v =
    c.vals <- bump_map c c.vals x v;
    (if br && SS.mem x a.shared then
       let in_crit =
         match SM.find_opt x a.prot with
         | Some l -> holding a label l
         | None -> false
       in
       if not in_crit then c.interf <- bump_map c c.interf x v);
    SM.add x v m

  (* A dereference may read any heap cell or any address-taken cell. *)
  let deref_read a c =
    SS.fold
      (fun x acc -> V.join acc (sm_get c.vals x))
      a.at
      (V.join c.heap c.i_at)

  let may_non_int v = (not (Bool3.is_bottom v.bool3)) || v.ptrs || v.funs
  let may_non_bool v = (not (N.is_bottom v.num)) || v.ptrs || v.funs

  let rec eval a c label m err e : aval =
    match e with
    | Ast.Eint n -> V.of_int n
    | Ast.Ebool b -> V.of_bool b
    | Ast.Evar x ->
        let v = read_var a c label m x in
        if V.is_bottom v then err := true;
        v
    | Ast.Eaddr x ->
        if not (SM.mem x m) then err := true;
        V.of_ptrs true
    | Ast.Ederef e1 ->
        let p = eval a c label m err e1 in
        if not p.ptrs then begin
          err := true;
          V.bottom
        end
        else begin
          if
            (not (N.is_bottom p.num))
            || (not (Bool3.is_bottom p.bool3))
            || p.funs
          then err := true;
          deref_read a c
        end
    | Ast.Eunop (Ast.Not, e1) ->
        let v = eval a c label m err e1 in
        if may_non_bool v then err := true;
        V.not_ v
    | Ast.Eunop (Ast.Neg, e1) ->
        let v = eval a c label m err e1 in
        if may_non_int v then err := true;
        V.neg v
    | Ast.Ebinop (op, e1, e2) ->
        let v1 = eval a c label m err e1 in
        let v2 = eval a c label m err e2 in
        binop err op v1 v2

  (* The error each operator may raise, and the pointer rule of [+]/[-]:
     a pointer plus or minus an integer stays a pointer. *)
  and binop err op v1 v2 =
    match op with
    | Ast.Add ->
        if
          (not (Bool3.is_bottom v1.bool3))
          || v1.funs
          || (not (Bool3.is_bottom v2.bool3))
          || v2.funs
          || (v1.ptrs && v2.ptrs)
        then err := true;
        {
          (V.add v1 v2) with
          ptrs =
            (v1.ptrs && not (N.is_bottom v2.num))
            || (v2.ptrs && not (N.is_bottom v1.num));
        }
    | Ast.Sub ->
        if
          (not (Bool3.is_bottom v1.bool3))
          || v1.funs
          || (not (Bool3.is_bottom v2.bool3))
          || v2.funs || v2.ptrs
        then err := true;
        { (V.sub v1 v2) with ptrs = v1.ptrs && not (N.is_bottom v2.num) }
    | Ast.Mul ->
        if may_non_int v1 || may_non_int v2 then err := true;
        V.mul v1 v2
    | Ast.Div ->
        if may_non_int v1 || may_non_int v2 || N.contains v2.num 0 then
          err := true;
        V.div v1 v2
    | Ast.Eq -> V.cmp_eq v1 v2
    | Ast.Ne -> V.cmp_ne v1 v2
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        if may_non_int v1 || may_non_int v2 then err := true;
        (match op with
        | Ast.Lt -> V.cmp_lt
        | Ast.Le -> V.cmp_le
        | Ast.Gt -> V.cmp_gt
        | _ -> V.cmp_ge)
          v1 v2
    | Ast.And | Ast.Or ->
        if may_non_bool v1 || may_non_bool v2 then err := true;
        (if op = Ast.And then V.and_ else V.or_) v1 v2

  (* --- branch refinement --- *)

  let flip_rel = function
    | Ast.Lt -> Ast.Gt
    | Ast.Gt -> Ast.Lt
    | Ast.Le -> Ast.Ge
    | Ast.Ge -> Ast.Le
    | op -> op

  let negate_rel = function
    | Ast.Eq -> Ast.Ne
    | Ast.Ne -> Ast.Eq
    | Ast.Lt -> Ast.Ge
    | Ast.Ge -> Ast.Lt
    | Ast.Le -> Ast.Gt
    | Ast.Gt -> Ast.Le
    | op -> op

  (* Refine the binding of [x] under "x op e2 is [truth]".  The value
     refined is the *full read* (local state joined with interference) —
     refining the local binding alone would be unsound when the guard is
     only satisfiable through interference, e.g. await(x == 1) where 1
     is another process's write. *)
  let rec refine a c label st e truth =
    match st with
    | Bot -> Bot
    | St m -> (
        match (e, truth) with
        | Ast.Eunop (Ast.Not, e1), _ -> refine a c label st e1 (not truth)
        | Ast.Ebinop (Ast.And, e1, e2), true ->
            refine a c label (refine a c label st e1 true) e2 true
        | Ast.Ebinop (Ast.Or, e1, e2), false ->
            refine a c label (refine a c label st e1 false) e2 false
        | Ast.Evar x, _ ->
            let v = read_var a c label m x in
            let b = Bool3.meet v.bool3 (Bool3.of_bool truth) in
            if Bool3.is_bottom b then Bot
            else St (SM.add x { V.bottom with bool3 = b } m)
        | ( Ast.Ebinop
              ( ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
                Ast.Evar x,
                e2 ),
            _ ) ->
            refine_rel a c label m x op e2 truth
        | ( Ast.Ebinop
              ( ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
                e1,
                Ast.Evar x ),
            _ ) ->
            refine_rel a c label m x (flip_rel op) e1 truth
        | _ -> st)

  and refine_rel a c label m x op e2 truth =
    match SM.find_opt x m with
    | None -> St m
    | Some _ ->
        let vx = read_var a c label m x in
        let dummy = ref false in
        let v2 = eval a c label m dummy e2 in
        let op = if truth then op else negate_rel op in
        let v' =
          match op with
          | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
              (* int-only comparison: on the surviving path both sides
                 are integers *)
              if N.is_bottom v2.num then V.bottom
              else
                {
                  V.bottom with
                  num =
                    (match op with
                    | Ast.Lt -> N.assume_lt
                    | Ast.Le -> N.assume_le
                    | Ast.Gt -> N.assume_gt
                    | Ast.Ge -> N.assume_ge
                    | _ -> assert false)
                      vx.num v2.num;
                }
          | Ast.Eq ->
              {
                num = N.assume_eq vx.num v2.num;
                bool3 = Bool3.meet vx.bool3 v2.bool3;
                ptrs = vx.ptrs && v2.ptrs;
                funs = vx.funs && v2.funs;
              }
          | Ast.Ne ->
              (* only sound when e2 is definitely an integer *)
              if Bool3.is_bottom v2.bool3 && (not v2.ptrs) && not v2.funs then
                { vx with num = N.assume_ne vx.num v2.num }
              else vx
          | _ -> assert false
        in
        if V.is_bottom v' then Bot else St (SM.add x v' m)

  (* --- per-statement widening for loop heads --- *)

  let st_widen c s1 s2 =
    match (s1, s2) with
    | Bot, x | x, Bot -> x
    | St m1, St m2 ->
        St
          (SM.merge
             (fun _ o n ->
               match (o, n) with
               | None, n -> n
               | o, None -> o
               | Some ov, Some nv ->
                   if V.leq nv ov then Some ov
                   else begin
                     c.widenings <- c.widenings + 1;
                     Obs_metrics.incr m_widenings;
                     Some (V.widen ov nv)
                   end)
             m1 m2)

  (* --- the sequential abstract interpreter --- *)

  (* [br]: lexically inside a cobegin branch (writes feed interference;
     returns cross the join and error).  [proc]: enclosing procedure for
     return summaries, [None] for the entry procedure (whose returns
     error, as in the concrete machine).  [record]: final reporting pass
     — collect reachable labels and verdicts. *)
  let rec exec a c ~br ~proc ~record st (s : Ast.stmt) : state =
    match st with
    | Bot -> Bot
    | St m -> (
        c.visits <- c.visits + 1;
        Obs_metrics.incr m_visits;
        let label = s.Ast.label in
        if record then c.reach <- IS.add label c.reach;
        let err = ref false in
        let finish st' =
          if record && !err then c.v_error <- IS.add label c.v_error;
          st'
        in
        match s.Ast.kind with
        | Ast.Sskip | Ast.Sfence -> St m
        | Ast.Sdecl (x, e) ->
            let v = eval a c label m err e in
            if V.is_bottom v then begin
              err := true;
              finish Bot
            end
            else begin
              (* a fresh cell: records its initial value but feeds no
                 interference (the binding predates any sharing) *)
              c.vals <- bump_map c c.vals x v;
              finish (St (SM.add x v m))
            end
        | Ast.Sassign (Ast.Lvar x, e) ->
            let v = eval a c label m err e in
            if V.is_bottom v || not (SM.mem x m) then begin
              err := true;
              finish Bot
            end
            else finish (St (write_var a c ~br label m x v))
        | Ast.Sassign (Ast.Lderef pe, e) ->
            let p = eval a c label m err pe in
            let v = eval a c label m err e in
            if (not p.ptrs) || V.is_bottom v then begin
              err := true;
              finish Bot
            end
            else begin
              if
                (not (N.is_bottom p.num))
                || (not (Bool3.is_bottom p.bool3))
                || p.funs
              then err := true;
              c.i_at <- bump c c.i_at v;
              finish (St m)
            end
        | Ast.Smalloc (lv, e) ->
            let sz = eval a c label m err e in
            if N.is_bottom sz.num then begin
              err := true;
              finish Bot
            end
            else begin
              if may_non_int sz then err := true;
              c.heap <- bump c c.heap (V.of_int 0);
              match lv with
              | Ast.Lvar x ->
                  if SM.mem x m then
                    finish (St (write_var a c ~br label m x (V.of_ptrs true)))
                  else begin
                    err := true;
                    finish Bot
                  end
              | Ast.Lderef pe ->
                  let p = eval a c label m err pe in
                  if not p.ptrs then begin
                    err := true;
                    finish Bot
                  end
                  else begin
                    c.i_at <- bump c c.i_at (V.of_ptrs true);
                    finish (St m)
                  end
            end
        | Ast.Sfree e ->
            let p = eval a c label m err e in
            if not p.ptrs then begin
              err := true;
              finish Bot
            end
            else begin
              if
                (not (N.is_bottom p.num))
                || (not (Bool3.is_bottom p.bool3))
                || p.funs
              then err := true;
              finish (St m)
            end
        | Ast.Scall (dest, callee, args) ->
            let cv = eval a c label m err callee in
            if not cv.funs then begin
              err := true;
              finish Bot
            end
            else begin
              if
                (not (N.is_bottom cv.num))
                || (not (Bool3.is_bottom cv.bool3))
                || cv.ptrs
              then err := true;
              let argvs = List.map (eval a c label m err) args in
              if List.exists V.is_bottom argvs then begin
                err := true;
                finish Bot
              end
              else begin
                let cands =
                  match IM.find_opt label a.cands with
                  | Some ks -> ks
                  | None -> SS.empty
                in
                let nargs = List.length args in
                let matching =
                  SS.filter
                    (fun f ->
                      match Ast.find_proc a.prog f with
                      | Some p -> List.length p.Ast.params = nargs
                      | None -> false)
                    cands
                in
                if SS.is_empty matching then begin
                  err := true;
                  finish Bot
                end
                else begin
                  SS.iter
                    (fun f ->
                      if not (SS.mem f c.called) then begin
                        c.called <- SS.add f c.called;
                        c.dirty <- true
                      end;
                      let arr =
                        match SM.find_opt f c.args with
                        | Some arr -> arr
                        | None ->
                            let arr = Array.make nargs V.bottom in
                            if nargs > 0 then c.args <- SM.add f arr c.args;
                            arr
                      in
                      List.iteri (fun i v -> arr.(i) <- bump c arr.(i) v) argvs)
                    matching;
                  let rv =
                    SS.fold
                      (fun f acc -> V.join acc (sm_get c.rets f))
                      matching V.bottom
                  in
                  if V.is_bottom rv then
                    (* no candidate can return (yet): the caller blocks;
                       later rounds revisit once a summary appears *)
                    finish Bot
                  else
                    match dest with
                    | None -> finish (St m)
                    | Some (Ast.Lvar x) ->
                        if SM.mem x m then
                          finish (St (write_var a c ~br label m x rv))
                        else begin
                          err := true;
                          finish Bot
                        end
                    | Some (Ast.Lderef pe) ->
                        let p = eval a c label m err pe in
                        if not p.ptrs then begin
                          err := true;
                          finish Bot
                        end
                        else begin
                          c.i_at <- bump c c.i_at rv;
                          finish (St m)
                        end
                end
              end
            end
        | Ast.Sreturn e_opt -> (
            let v =
              match e_opt with
              | Some e -> eval a c label m err e
              | None -> V.of_int 0
            in
            match proc with
            | Some f when not br ->
                if V.is_bottom v then err := true
                else c.rets <- bump_map c c.rets f v;
                finish Bot
            | _ ->
                (* return in the entry procedure or crossing a cobegin
                   boundary: a concrete runtime error *)
                err := true;
                finish Bot)
        | Ast.Sblock ss | Ast.Satomic ss -> (
            let st', restores =
              List.fold_left
                (fun (st, rs) (si : Ast.stmt) ->
                  let rs =
                    match (si.Ast.kind, st) with
                    | Ast.Sdecl (x, _), St mm -> (x, SM.find_opt x mm) :: rs
                    | _ -> rs
                  in
                  (exec a c ~br ~proc ~record st si, rs))
                (St m, []) ss
            in
            match st' with
            | Bot -> Bot
            | St m' ->
                (* restore the outer bindings shadowed by the block's own
                   declarations, innermost first *)
                St
                  (List.fold_left
                     (fun mm (x, old_) ->
                       match old_ with
                       | Some v -> SM.add x v mm
                       | None -> SM.remove x mm)
                     m' restores))
        | Ast.Sif (cond, s1, s2) ->
            let cv = eval a c label m err cond in
            if Bool3.is_bottom cv.bool3 then begin
              err := true;
              finish Bot
            end
            else begin
              if may_non_bool cv then err := true;
              let t =
                if Bool3.may_be_true cv.bool3 then
                  exec a c ~br ~proc ~record
                    (refine a c label (St m) cond true)
                    s1
                else Bot
              in
              let f =
                if Bool3.may_be_false cv.bool3 then
                  exec a c ~br ~proc ~record
                    (refine a c label (St m) cond false)
                    s2
                else Bot
              in
              finish (st_join t f)
            end
        | Ast.Swhile (cond, body) -> (
            let rec go i head =
              match head with
              | Bot -> Bot
              | St hm ->
                  let werr = ref false in
                  let cv = eval a c label hm werr cond in
                  let entered =
                    if Bool3.may_be_true cv.bool3 then
                      exec a c ~br ~proc ~record
                        (refine a c label head cond true)
                        body
                    else Bot
                  in
                  let next = st_join head entered in
                  if st_leq next head then head
                  else
                    go (i + 1)
                      (if i >= widen_after then st_widen c head next
                       else next)
            in
            match go 0 (St m) with
            | Bot -> Bot
            | St hm as headfix ->
                let cv = eval a c label hm err cond in
                if Bool3.is_bottom cv.bool3 then begin
                  err := true;
                  finish Bot
                end
                else begin
                  if may_non_bool cv then err := true;
                  if Bool3.may_be_false cv.bool3 then
                    finish (refine a c label headfix cond false)
                  else finish Bot
                end)
        | Ast.Scobegin bs ->
            let exits =
              List.map
                (fun b -> exec a c ~br:true ~proc ~record (St m) b)
                bs
            in
            (* a branch that never terminates makes the join unreachable *)
            if List.exists (function Bot -> true | St _ -> false) exits
            then Bot
            else finish (List.fold_left st_join Bot exits)
        | Ast.Sawait cond ->
            let cv = eval a c label m err cond in
            if Bool3.is_bottom cv.bool3 then begin
              err := true;
              finish Bot
            end
            else begin
              if may_non_bool cv then err := true;
              if Bool3.may_be_true cv.bool3 then
                finish (refine a c label (St m) cond true)
              else begin
                if record then c.v_never <- IS.add label c.v_never;
                finish Bot
              end
            end
        | Ast.Sacquire x ->
            let v = read_var a c label m x in
            if V.is_bottom v then begin
              err := true;
              finish Bot
            end
            else if N.contains v.num 0 then begin
              let m = write_var a c ~br label m x (V.of_int 1) in
              (* entering the critical sections this lock guards:
                 re-import the published lock invariants *)
              let m =
                match SM.find_opt x a.prot_by with
                | None -> m
                | Some ys ->
                    SS.fold
                      (fun y mm ->
                        match SM.find_opt y mm with
                        | None -> mm
                        | Some vy ->
                            SM.add y (V.join vy (sm_get c.inv y)) mm)
                      ys m
              in
              finish (St m)
            end
            else begin
              if record then c.v_never <- IS.add label c.v_never;
              finish Bot
            end
        | Ast.Srelease x ->
            if not (SM.mem x m) then begin
              err := true;
              finish Bot
            end
            else begin
              (* publish the critical-section-exit values of the
                 variables this lock protects *)
              (match SM.find_opt x a.prot_by with
              | None -> ()
              | Some ys ->
                  SS.iter
                    (fun y ->
                      match SM.find_opt y m with
                      | None -> ()
                      | Some vy -> c.inv <- bump_map c c.inv y vy)
                    ys);
              finish (St (write_var a c ~br label m x (V.of_int 0)))
            end
        | Ast.Sassert cond ->
            let cv = eval a c label m err cond in
            if Bool3.is_bottom cv.bool3 then begin
              err := true;
              finish Bot
            end
            else begin
              if may_non_bool cv then err := true;
              if record && Bool3.may_be_false cv.bool3 then
                c.v_assert <- IS.add label c.v_assert;
              if Bool3.may_be_true cv.bool3 then
                finish (refine a c label (St m) cond true)
              else finish Bot
            end)

  (* One ensemble pass: the entry procedure from the empty state, then
     every called procedure from its accumulated argument summary. *)
  let run_pass a c ~record =
    let entry = Ast.entry_proc a.prog in
    ignore (exec a c ~br:false ~proc:None ~record (St SM.empty) entry.Ast.body);
    SS.iter
      (fun f ->
        match Ast.find_proc a.prog f with
        | None -> ()
        | Some p ->
            let arr =
              match SM.find_opt f c.args with Some arr -> arr | None -> [||]
            in
            if Array.length arr = List.length p.Ast.params then begin
              let _, m0 =
                List.fold_left
                  (fun (i, mm) x ->
                    let v = arr.(i) in
                    (* parameter cells are allocation sites too: feed the
                       soundness oracle *)
                    c.vals <- bump_map c c.vals x v;
                    (i + 1, SM.add x v mm))
                  (0, SM.empty) p.Ast.params
              in
              match exec a c ~br:false ~proc:(Some f) ~record (St m0) p.Ast.body with
              | Bot -> ()
              | St _ ->
                  (* fall-through return yields 0, as in the concrete
                     machine *)
                  c.rets <- bump_map c c.rets f (V.of_int 0)
            end)
      c.called

  let analyze ~locksets ?budget ~domain (ls : Lockset.t) : summary =
    let mhp = Lockset.mhp ls in
    let prog = Mhp.program mhp in
    let at = Mhp.addr_taken mhp in
    let shared = compute_shared mhp in
    let prot, prot_by =
      if locksets then compute_protection ls ~shared ~addr_taken:at
      else (SM.empty, SM.empty)
    in
    let cands =
      List.fold_left
        (fun acc (k : Mhp.call_site) -> IM.add k.Mhp.k_label k.Mhp.k_callees acc)
        IM.empty (Mhp.call_sites mhp)
    in
    let a = { prog; ls; shared; at; prot; prot_by; cands } in
    let c = init_acc () in
    let rec rounds r =
      Fault.hit "interfere.iter";
      (* one event per fixpoint round — rounds are few (≤ max_rounds),
         so no sampling needed.  Rounds count as configurations and
         statement visits as transitions, as in the budget check. *)
      if Obs_journal.enabled () then
        Obs_journal.progress "interfere" ~configurations:r
          ~frontier:(SM.cardinal c.interf) ~transitions:c.visits ?budget
          [
            ("round", Obs_journal.Int r);
            ("interference_vars", Obs_journal.Int (SM.cardinal c.interf));
            ("stmt_visits", Obs_journal.Int c.visits);
          ];
      let stop =
        match budget with
        | Some b -> Budget.check b ~configs:r ~transitions:c.visits
        | None -> None
      in
      match stop with
      | Some reason -> (r, Budget.Truncated reason)
      | None ->
          if r > max_rounds then (max_rounds, Budget.Truncated (Budget.Fuel max_rounds))
          else begin
            Obs_metrics.incr m_rounds;
            c.dirty <- false;
            c.wround <- r >= widen_after;
            run_pass a c ~record:false;
            Obs_metrics.set g_ivars (SM.cardinal c.interf);
            if c.dirty then rounds (r + 1) else (r, Budget.Complete)
          end
    in
    let nrounds, status = rounds 1 in
    (* final reporting pass: verdicts and abstract reachability.  It runs
       after truncation too — partial but real, never fabricated. *)
    run_pass a c ~record:true;
    (* fold the pointer-mediated writes into the per-name results *)
    let vals =
      SS.fold
        (fun x acc -> SM.add x (V.join (sm_get acc x) c.i_at) acc)
        a.at c.vals
    in
    let heap = V.join c.heap c.i_at in
    let verdicts =
      {
        assert_may_fail = IS.elements c.v_assert;
        never_proceeds = IS.elements c.v_never;
        error_sites = IS.elements c.v_error;
        races =
          List.filter
            (fun (r : Lockset.race) ->
              IS.mem r.r_stmt1 c.reach && IS.mem r.r_stmt2 c.reach)
            (Lockset.races ~locks:locksets ls);
      }
    in
    (* the soundness oracle: map each concrete allocation site to the
       abstract values its cells may hold *)
    let site_kinds =
      Ast.fold_program
        (fun acc (s : Ast.stmt) ->
          match s.Ast.kind with
          | Ast.Sdecl (x, _) -> IM.add s.Ast.label (`Decl x) acc
          | Ast.Smalloc _ -> IM.add s.Ast.label `Malloc acc
          | Ast.Scall _ ->
              let pss =
                match IM.find_opt s.Ast.label cands with
                | None -> []
                | Some ks ->
                    SS.fold
                      (fun f acc ->
                        match Ast.find_proc prog f with
                        | Some p -> p.Ast.params :: acc
                        | None -> acc)
                      ks []
              in
              IM.add s.Ast.label (`Call pss) acc
          | _ -> acc)
        IM.empty prog
    in
    let contains_value av (v : Value.t) =
      match v with
      | Value.Vint n -> N.contains av.num n
      | Value.Vbool b ->
          if b then Bool3.may_be_true av.bool3
          else Bool3.may_be_false av.bool3
      | Value.Vloc _ -> av.ptrs
      | Value.Vfun _ -> av.funs
    in
    let check bindings =
      List.filter
        (fun ((loc : Value.loc), v) ->
          let ok =
            match IM.find_opt loc.Value.l_site site_kinds with
            | Some (`Decl x) -> contains_value (sm_get vals x) v
            | Some `Malloc -> contains_value heap v
            | Some (`Call pss) ->
                List.exists
                  (fun ps ->
                    match List.nth_opt ps loc.Value.l_off with
                    | Some x -> contains_value (sm_get vals x) v
                    | None -> false)
                  pss
            | None -> false
          in
          not ok)
        bindings
    in
    let printed m =
      List.map
        (fun (x, v) -> (x, Format.asprintf "%a" pp_aval v))
        (SM.bindings m)
    in
    {
      domain;
      locksets;
      rounds = nrounds;
      widenings = c.widenings;
      stmt_visits = c.visits;
      status;
      shared = SS.elements shared;
      protected_ = SM.bindings prot;
      interference = printed c.interf;
      bindings = printed vals;
      reachable = IS.elements c.reach;
      verdicts;
      check;
    }
end

(* --- the domain-erased driver --- *)

(* Widening thresholds: the program's integer constants (and their
   negations), so interference fixpoints land on the constants loops
   actually compare against instead of jumping straight to infinity. *)
let harvest_thresholds (prog : Ast.program) =
  let rec consts acc = function
    | Ast.Eint n -> n :: -n :: acc
    | Ast.Ebool _ | Ast.Evar _ | Ast.Eaddr _ -> acc
    | Ast.Eunop (_, e1) -> consts acc e1
    | Ast.Ebinop (_, e1, e2) -> consts (consts acc e1) e2
    | Ast.Ederef e1 -> consts acc e1
  in
  let of_lv acc = function Ast.Lvar _ -> acc | Ast.Lderef e -> consts acc e in
  List.sort_uniq compare
    (Ast.fold_program
       (fun acc (s : Ast.stmt) ->
         match s.Ast.kind with
         | Ast.Sskip | Ast.Sfence | Ast.Sreturn None | Ast.Sacquire _
         | Ast.Srelease _ | Ast.Sblock _ | Ast.Scobegin _ | Ast.Satomic _ ->
             acc
         | Ast.Sdecl (_, e)
         | Ast.Sawait e
         | Ast.Sassert e
         | Ast.Sreturn (Some e)
         | Ast.Sfree e
         | Ast.Sif (e, _, _)
         | Ast.Swhile (e, _) ->
             consts acc e
         | Ast.Sassign (lv, e) | Ast.Smalloc (lv, e) ->
             of_lv (consts acc e) lv
         | Ast.Scall (lv, callee, args) ->
             let acc =
               match lv with Some l -> of_lv acc l | None -> acc
             in
             List.fold_left consts (consts acc callee) args)
       [ 0; 1 ] prog)

let run ?(domain = Analyzer.Intervals) ?(locksets = true) ?budget
    (ls : Lockset.t) : summary =
  (* intervals widen with thresholds; every other domain with its own *)
  let (module N : Lattice.NUMERIC) =
    match domain with
    | Analyzer.Intervals ->
        let thresholds = harvest_thresholds (Mhp.program (Lockset.mhp ls)) in
        (module struct
          include Interval

          let widen = Interval.widen_thresholds thresholds
        end)
    | d -> Analyzer.lattice d
  in
  let module I = Make (N) in
  I.analyze ~locksets ?budget ~domain ls

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>interference [%a%s]: rounds=%d widenings=%d visits=%d%a@,shared (%d):%a@,"
    Analyzer.pp_domain s.domain
    (if s.locksets then ", locksets" else "")
    s.rounds s.widenings s.stmt_visits
    (fun ppf -> function
      | Budget.Complete -> ()
      | st -> Format.fprintf ppf " %a" Budget.pp_status st)
    s.status (List.length s.shared)
    (fun ppf -> function
      | [] -> Format.pp_print_string ppf " -"
      | xs ->
          List.iter
            (fun x ->
              match List.assoc_opt x s.protected_ with
              | Some l -> Format.fprintf ppf " %s(lock %s)" x l
              | None -> Format.fprintf ppf " %s" x)
            xs)
    s.shared;
  List.iter
    (fun (x, v) ->
      let i =
        match List.assoc_opt x s.interference with
        | Some i -> Format.sprintf "  interference %s" i
        | None -> ""
      in
      Format.fprintf ppf "  %s: %s%s@," x v i)
    s.bindings;
  Format.fprintf ppf "%a@]" pp_verdicts s.verdicts
