(* The abstract machine (paper sections 4 and 6): an abstract
   interpretation of the interleaving semantics.  Mirrors the concrete
   machine of Cobegin_semantics, but over abstract values, site-based
   abstract locations, instance-erased k-limited procedure strings, and —
   crucially — a pluggable *folding* of configurations:

     Exact    no folding beyond abstract values: configurations compare
              with their stores (terminates only for loop-free programs);
     Control  fold configurations with the same control skeleton, joining
              their stores (Taylor's concurrency states [Tay83]: the
              "dangling links" of the paper's Figure 3 merge);
     Clan     additionally forget *which* branch of a cobegin a process
              is (fold by the multiset of shapes): McDowell's clans
              [McD89]; symmetric branches collapse.

   The machine is a functor over the numeric domain (intervals by
   default; constants, signs, parity also instantiate). *)

open Cobegin_lang
open Cobegin_domains

type folding = Exact | Control | Clan

(* Telemetry handles: defined once outside the functor so every numeric
   domain's machine shares the same registered counters.  No-ops (one
   branch) while telemetry is disabled. *)
module Obs_metrics = Cobegin_obs.Metrics
module Obs_journal = Cobegin_obs.Journal

(* Engine-namespaced like the concrete engines' [space.*] / [stubborn.*]
   families, so [--metrics] output lines up column-for-column. *)
let m_widenings = Obs_metrics.counter "abstract.widenings"
let m_fold_hits = Obs_metrics.counter "abstract.fold_hits"

(* Growing joins into one folding key before joins become widenings. *)
let widen_after = 3

let pp_folding ppf f =
  Format.pp_print_string ppf
    (match f with Exact -> "exact" | Control -> "control" | Clan -> "clan")

module Make (N : Lattice.NUMERIC) = struct
  module V = Aval.Make (N) (Aval.Alocs) (Aval.Funs)
  module SM = Map.Make (String)
  module AM = Map.Make (Aloc.Ordered)

  type apid = (int * int) list (* fork path, as in the concrete machine *)

  let compare_apid = List.compare (fun (a, b) (c, d) ->
      let x = Int.compare a c in
      if x <> 0 then x else Int.compare b d)

  module PM = Map.Make (struct
    type t = apid

    let compare = compare_apid
  end)

  type env = Aloc.Set.t SM.t

  type item =
    | AIstmt of Ast.stmt
    | AIpop of env
    | AIret of { dest : Ast.lvalue option; saved_env : env; site : int }
    | AIjoin of { cob : int; children : apid list }

  type shape = { env : env; stack : item list; apstr : Pstring.t }

  type config = {
    procs : shape PM.t;
    store : V.t AM.t;
    multi : Aloc.Set.t; (* alocs that may denote several live cells *)
    err : bool;
  }

  type params = {
    k_pstring : int; (* procedure-string depth limit *)
    max_call_depth : int;
        (* recursion bound: deeper abstract calls are flagged as errors
           ("analysis gave up on this path") instead of growing the
           control space without bound *)
  }

  let default_params = { k_pstring = 8; max_call_depth = 64 }

  type ctx = {
    prog : Ast.program;
    params : params;
    log : Alog.t ref; (* global instrumentation log *)
  }

  let make_ctx ?(params = default_params) prog =
    { prog; params; log = ref Alog.empty }

  (* --- environments --- *)

  let env_find x (e : env) =
    match SM.find_opt x e with Some s -> s | None -> Aloc.Set.bottom

  let env_bind x alocs (e : env) = SM.add x alocs e

  let env_join (a : env) (b : env) =
    SM.union (fun _ s1 s2 -> Some (Aloc.Set.union s1 s2)) a b

  let env_equal = SM.equal Aloc.Set.equal

  (* --- store --- *)

  let store_find l (st : V.t AM.t) =
    match AM.find_opt l st with Some v -> v | None -> V.bottom

  let store_join = AM.union (fun _ v1 v2 -> Some (V.join v1 v2))

  let store_widen (old_ : V.t AM.t) (new_ : V.t AM.t) =
    AM.union (fun _ v1 v2 -> Some (V.widen v1 v2)) old_ new_

  let store_leq a b = AM.for_all (fun l v -> V.leq v (store_find l b)) a

  let store_equal = AM.equal V.equal

  (* Weak or strong write: strong when the target is a single abstract
     location that denotes at most one live concrete cell. *)
  let write targets v multi st =
    match Aloc.Set.elements targets with
    | [ l ] when not (Aloc.Set.mem l multi) -> AM.add l v st
    | ls -> List.fold_left (fun st l -> AM.add l (V.join v (store_find l st)) st) st ls

  (* Allocation: a site allocated while already live becomes multi. *)
  let allocate l v (multi, st) =
    let multi = if AM.mem l st then Aloc.Set.add l multi else multi in
    (multi, AM.add l (V.join v (store_find l st)) st)
    (* join at allocation: under multi the old cells persist *)

  (* --- instrumentation --- *)

  let log_access ctx ~label ~aloc ~kind ~apstr =
    ctx.log :=
      Alog.add_access { Alog.label; aloc; kind; apstr } !(ctx.log)

  let log_reads ctx ~label ~apstr alocs =
    Aloc.Set.iter
      (fun aloc -> log_access ctx ~label ~aloc ~kind:Alog.Read ~apstr)
      alocs

  let log_writes ctx ~label ~apstr alocs =
    Aloc.Set.iter
      (fun aloc -> log_access ctx ~label ~aloc ~kind:Alog.Write ~apstr)
      alocs

  let log_alloc ctx ~aloc ~site ~birth =
    ctx.log := Alog.add_alloc { Alog.al_aloc = aloc; al_site = site; al_birth = birth } !(ctx.log)

  (* --- abstract expression evaluation --- *)

  (* Evaluation returns the abstract value and the abstract locations
     read.  A "definitely erroneous" evaluation returns bottom; the
     caller raises the error flag when the result of a needed evaluation
     is bottom. *)
  let rec eval ctx (env : env) store (reads : Aloc.Set.t ref) e : V.t =
    match e with
    | Ast.Eint n -> V.of_int n
    | Ast.Ebool b -> V.of_bool b
    | Ast.Evar x ->
        let alocs = env_find x env in
        if Aloc.Set.is_bottom alocs then
          if Ast.has_proc ctx.prog x then V.of_funs (Aval.Funs.singleton x)
          else V.bottom
        else begin
          reads := Aloc.Set.union alocs !reads;
          Aloc.Set.fold (fun l acc -> V.join acc (store_find l store)) alocs V.bottom
        end
    | Ast.Eaddr x ->
        let alocs = env_find x env in
        if Aloc.Set.is_bottom alocs then V.bottom else V.of_ptrs alocs
    | Ast.Ederef e1 ->
        let v1 = eval ctx env store reads e1 in
        let targets = v1.V.ptrs in
        if Aloc.Set.is_bottom targets then V.bottom
        else begin
          reads := Aloc.Set.union targets !reads;
          Aloc.Set.fold
            (fun l acc -> V.join acc (store_find l store))
            targets V.bottom
        end
    | Ast.Eunop (op, e1) -> (
        let v = eval ctx env store reads e1 in
        match op with Ast.Not -> V.not_ v | Ast.Neg -> V.neg v)
    | Ast.Ebinop (op, e1, e2) ->
        let v1 = eval ctx env store reads e1 in
        let v2 = eval ctx env store reads e2 in
        eval_binop op v1 v2

  and eval_binop op v1 v2 =
    match op with
    | Ast.Add ->
        (* pointer arithmetic folds into the same abstract block *)
        let num = V.add v1 v2 in
        let ptrs = Aloc.Set.union v1.V.ptrs v2.V.ptrs in
        { num with V.ptrs }
    | Ast.Sub ->
        let num = V.sub v1 v2 in
        { num with V.ptrs = v1.V.ptrs }
    | Ast.Mul -> V.mul v1 v2
    | Ast.Div -> V.div v1 v2
    | Ast.Eq -> V.cmp_eq v1 v2
    | Ast.Ne -> V.cmp_ne v1 v2
    | Ast.Lt -> V.cmp_lt v1 v2
    | Ast.Le -> V.cmp_le v1 v2
    | Ast.Gt -> V.cmp_gt v1 v2
    | Ast.Ge -> V.cmp_ge v1 v2
    | Ast.And -> V.and_ v1 v2
    | Ast.Or -> V.or_ v1 v2

  (* Targets of an lvalue. *)
  let lvalue_targets ctx env store reads = function
    | Ast.Lvar x -> env_find x env
    | Ast.Lderef e ->
        let v = eval ctx env store reads e in
        v.V.ptrs

  (* --- normalization --- *)

  let rec normalize_shape (s : shape) : shape option =
    match s.stack with
    | [] -> None
    | AIstmt { kind = Ast.Sblock ss; _ } :: rest ->
        let items = List.map (fun st -> AIstmt st) ss in
        normalize_shape { s with stack = items @ (AIpop s.env :: rest) }
    | AIpop env :: rest -> normalize_shape { s with env; stack = rest }
    | (AIstmt _ | AIret _ | AIjoin _) :: _ -> Some s

  let normalize (c : config) : config =
    let procs =
      PM.fold
        (fun apid sh acc ->
          match normalize_shape sh with
          | Some sh' -> PM.add apid sh' acc
          | None -> PM.remove apid acc)
        c.procs c.procs
    in
    { c with procs }

  let init ctx : config =
    let entry = Ast.entry_proc ctx.prog in
    let sh = { env = SM.empty; stack = [ AIstmt entry.Ast.body ]; apstr = Pstring.empty } in
    normalize
      { procs = PM.singleton [] sh; store = AM.empty; multi = Aloc.Set.bottom; err = false }

  (* --- enabledness --- *)

  let enabled ctx (c : config) (apid, sh) : bool =
    match sh.stack with
    | [] -> false
    | AIpop _ :: _ -> assert false
    | AIret _ :: _ -> true
    | AIjoin { children; _ } :: _ ->
        List.for_all (fun child -> not (PM.mem child c.procs)) children
    | AIstmt s :: _ -> (
        ignore apid;
        match s.Ast.kind with
        | Ast.Sawait e ->
            let v = eval ctx sh.env c.store (ref Aloc.Set.bottom) e in
            Bool3.may_be_true v.V.bool3 || V.is_bottom v (* error fires *)
        | Ast.Sacquire x ->
            let alocs = env_find x sh.env in
            Aloc.Set.is_bottom alocs
            || Aloc.Set.exists
                 (fun l -> N.contains (store_find l c.store).V.num 0)
                 alocs
        | _ -> true)

  let enabled_shapes ctx c =
    if c.err then []
    else List.filter (enabled ctx c) (PM.bindings c.procs)

  (* --- abstract transitions --- *)

  let apstr_exit p = match p with [] -> [] | _ -> Pstring.exit_frame p

  let abstract_pstr ctx p = Pstring.abstract ~k:ctx.params.k_pstring p

  (* Replace shape of [apid] and normalize. *)
  let commit apid sh (c : config) : config =
    normalize { c with procs = PM.add apid sh c.procs }

  let err_config (c : config) = { c with err = true }

  (* Branch-condition refinement: when the condition is a comparison of a
     variable bound to a single non-multi location, narrow its stored
     value in the corresponding successor. *)
  let refine ctx env store multi cond ~branch =
    let refinable x =
      match Aloc.Set.elements (env_find x env) with
      | [ l ] when not (Aloc.Set.mem l multi) -> Some l
      | _ -> None
    in
    let narrow x f other =
      match refinable x with
      | None -> store
      | Some l ->
          let v = store_find l store in
          let rhs = eval ctx env store (ref Aloc.Set.bottom) other in
          let v' = { v with V.num = f v.V.num rhs.V.num } in
          AM.add l v' store
    in
    match cond with
    | Ast.Ebinop (op, Ast.Evar x, e2) -> (
        match (op, branch) with
        | Ast.Lt, true -> narrow x N.assume_lt e2
        | Ast.Lt, false -> narrow x N.assume_ge e2
        | Ast.Le, true -> narrow x N.assume_le e2
        | Ast.Le, false -> narrow x N.assume_gt e2
        | Ast.Gt, true -> narrow x N.assume_gt e2
        | Ast.Gt, false -> narrow x N.assume_le e2
        | Ast.Ge, true -> narrow x N.assume_ge e2
        | Ast.Ge, false -> narrow x N.assume_lt e2
        | Ast.Eq, true -> narrow x N.assume_eq e2
        | Ast.Eq, false -> narrow x N.assume_ne e2
        | Ast.Ne, true -> narrow x N.assume_ne e2
        | Ast.Ne, false -> narrow x N.assume_eq e2
        | _ -> store)
    | _ -> store

  (* Execute one simple statement abstractly, threading (env, store,
     multi).  Returns the successor state when the statement may succeed
     and a flag saying whether it may also fail (an assert whose
     condition is possibly false yields both). *)
  let exec_simple ctx apid apstr (env, store, multi) (s : Ast.stmt) :
      (env * V.t AM.t * Aloc.Set.t) option * bool =
    ignore apid;
    let label = s.Ast.label in
    match s.Ast.kind with
    | Ast.Sskip -> (Some (env, store, multi), false)
    | Ast.Sdecl (x, e) ->
        let reads = ref Aloc.Set.bottom in
        let v = eval ctx env store reads e in
        let aloc = Aloc.Adecl { site = label; var = x } in
        let multi, store = allocate aloc v (multi, store) in
        log_reads ctx ~label ~apstr !reads;
        log_writes ctx ~label ~apstr (Aloc.Set.singleton aloc);
        log_alloc ctx ~aloc ~site:label ~birth:apstr;
        (Some (env_bind x (Aloc.Set.singleton aloc) env, store, multi), false)
    | Ast.Sassign (lv, e) ->
        let reads = ref Aloc.Set.bottom in
        let v = eval ctx env store reads e in
        let targets = lvalue_targets ctx env store reads lv in
        if Aloc.Set.is_bottom targets then (None, true)
        else begin
          log_reads ctx ~label ~apstr !reads;
          log_writes ctx ~label ~apstr targets;
          (Some (env, write targets v multi store, multi), false)
        end
    | Ast.Sassert e ->
        let reads = ref Aloc.Set.bottom in
        let v = eval ctx env store reads e in
        log_reads ctx ~label ~apstr !reads;
        ( (if Bool3.may_be_true v.V.bool3 then Some (env, store, multi)
           else None),
          Bool3.may_be_false v.V.bool3 || V.is_bottom v )
    | _ -> invalid_arg "Machine.exec_simple"

  (* Successors of firing shape [apid]. *)
  let fire ctx (c : config) (apid, sh) : config list =
    let store = c.store and multi = c.multi in
    let apstr = sh.apstr in
    match sh.stack with
    | [] | AIpop _ :: _ -> assert false
    | AIjoin _ :: rest -> [ commit apid { sh with stack = rest } c ]
    | AIret { dest; saved_env; site } :: rest ->
        let caller_pstr = apstr_exit apstr in
        let c' =
          match dest with
          | None -> c
          | Some lv ->
              let reads = ref Aloc.Set.bottom in
              let targets = lvalue_targets ctx saved_env store reads lv in
              if Aloc.Set.is_bottom targets then err_config c
              else begin
                log_reads ctx ~label:site ~apstr:caller_pstr !reads;
                log_writes ctx ~label:site ~apstr:caller_pstr targets;
                { c with store = write targets V.zero multi store }
              end
        in
        if c'.err then [ c' ]
        else
          [
            commit apid
              { env = saved_env; stack = rest; apstr = apstr_exit apstr }
              c';
          ]
    | AIstmt s :: rest -> (
        let label = s.Ast.label in
        match s.Ast.kind with
        | Ast.Sfence -> [ commit apid { sh with stack = rest } c ]
        | Ast.Sskip | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sassert _ -> (
            match exec_simple ctx apid apstr (sh.env, store, multi) s with
            | Some (env, store, multi), may_fail ->
                (if may_fail then [ err_config c ] else [])
                @ [
                    commit apid { sh with env; stack = rest }
                      { c with store; multi };
                  ]
            | None, _ -> [ err_config c ])
        | Ast.Satomic ss -> (
            let rec go acc failed = function
              | [] -> (Some acc, failed)
              | s' :: tl -> (
                  match exec_simple ctx apid apstr acc s' with
                  | Some acc, f -> go acc (failed || f) tl
                  | None, _ -> (None, true))
            in
            match go (sh.env, store, multi) false ss with
            | Some (env, store, multi), may_fail ->
                (if may_fail then [ err_config c ] else [])
                @ [
                    commit apid { sh with env; stack = rest }
                      { c with store; multi };
                  ]
            | None, _ -> [ err_config c ])
        | Ast.Smalloc (lv, e) ->
            let reads = ref Aloc.Set.bottom in
            let _size = eval ctx sh.env store reads e in
            let aloc = Aloc.Asite { site = label } in
            let multi, store = allocate aloc V.zero (multi, store) in
            let targets = lvalue_targets ctx sh.env store reads lv in
            if Aloc.Set.is_bottom targets then [ err_config c ]
            else begin
              log_reads ctx ~label ~apstr !reads;
              log_writes ctx ~label ~apstr targets;
              log_alloc ctx ~aloc ~site:label ~birth:apstr;
              let store =
                write targets (V.of_ptrs (Aloc.Set.singleton aloc)) multi store
              in
              [ commit apid { sh with stack = rest } { c with store; multi } ]
            end
        | Ast.Sfree e ->
            (* abstract free keeps the cells (weak free): sound for the
               analyses; dangling detection is a concrete-engine concern *)
            let reads = ref Aloc.Set.bottom in
            let v = eval ctx sh.env store reads e in
            log_reads ctx ~label ~apstr !reads;
            log_writes ctx ~label ~apstr v.V.ptrs;
            [ commit apid { sh with stack = rest } c ]
        | Ast.Scall (dest, callee, args) -> (
            let depth =
              List.length
                (List.filter
                   (function AIret _ -> true | _ -> false)
                   sh.stack)
            in
            if depth >= ctx.params.max_call_depth then [ err_config c ]
            else
            let reads = ref Aloc.Set.bottom in
            let cv = eval ctx sh.env store reads callee in
            let fnames = Aval.Funs.elements cv.V.funs in
            log_reads ctx ~label ~apstr !reads;
            match fnames with
            | [] -> [ err_config c ]
            | _ ->
                List.map
                  (fun fname ->
                    match Ast.find_proc ctx.prog fname with
                    | None -> err_config c
                    | Some callee_proc ->
                        if
                          List.length args
                          <> List.length callee_proc.Ast.params
                        then err_config c
                        else begin
                          let arg_reads = ref Aloc.Set.bottom in
                          let arg_vals =
                            List.map (eval ctx sh.env store arg_reads) args
                          in
                          log_reads ctx ~label ~apstr !arg_reads;
                          let new_pstr =
                            abstract_pstr ctx
                              (Pstring.enter_call ~proc:fname ~site:label
                                 ~inst:0 apstr)
                          in
                          let multi, store, env' =
                            List.fold_left2
                              (fun (multi, store, env') (i, x) v ->
                                let aloc =
                                  Aloc.Aparam { proc = fname; idx = i; var = x }
                                in
                                let multi, store =
                                  allocate aloc v (multi, store)
                                in
                                log_writes ctx ~label ~apstr:new_pstr
                                  (Aloc.Set.singleton aloc);
                                log_alloc ctx ~aloc ~site:label
                                  ~birth:new_pstr;
                                ( multi,
                                  store,
                                  env_bind x (Aloc.Set.singleton aloc) env' ))
                              (multi, store, SM.empty)
                              (List.mapi (fun i x -> (i, x)) callee_proc.Ast.params)
                              arg_vals
                          in
                          let sh' =
                            {
                              env = env';
                              apstr = new_pstr;
                              stack =
                                AIstmt callee_proc.Ast.body
                                :: AIret { dest; saved_env = sh.env; site = label }
                                :: rest;
                            }
                          in
                          commit apid sh' { c with store; multi }
                        end)
                  fnames)
        | Ast.Sreturn e_opt -> (
            let reads = ref Aloc.Set.bottom in
            let v =
              match e_opt with
              | Some e -> eval ctx sh.env store reads e
              | None -> V.zero
            in
            log_reads ctx ~label ~apstr !reads;
            let rec unwind = function
              | AIret { dest; saved_env; site } :: tl ->
                  Some (dest, saved_env, site, tl)
              | AIjoin _ :: _ -> None
              | (AIpop _ | AIstmt _) :: tl -> unwind tl
              | [] -> None
            in
            match unwind rest with
            | None -> [ err_config c ]
            | Some (dest, saved_env, site, tail) ->
                let caller_pstr = apstr_exit apstr in
                let c' =
                  match dest with
                  | None -> c
                  | Some lv ->
                      let r2 = ref Aloc.Set.bottom in
                      let targets =
                        lvalue_targets ctx saved_env store r2 lv
                      in
                      if Aloc.Set.is_bottom targets then err_config c
                      else begin
                        log_reads ctx ~label:site ~apstr:caller_pstr !r2;
                        log_writes ctx ~label:site ~apstr:caller_pstr targets;
                        { c with store = write targets v multi store }
                      end
                in
                if c'.err then [ c' ]
                else
                  [
                    commit apid
                      {
                        env = saved_env;
                        stack = tail;
                        apstr = apstr_exit apstr;
                      }
                      c';
                  ])
        | Ast.Sif (e, s1, s2) ->
            let reads = ref Aloc.Set.bottom in
            let v = eval ctx sh.env store reads e in
            log_reads ctx ~label ~apstr !reads;
            let succs = ref [] in
            if Bool3.may_be_true v.V.bool3 then begin
              let store' = refine ctx sh.env store multi e ~branch:true in
              succs :=
                commit apid
                  { sh with stack = AIstmt s1 :: rest }
                  { c with store = store' }
                :: !succs
            end;
            if Bool3.may_be_false v.V.bool3 then begin
              let store' = refine ctx sh.env store multi e ~branch:false in
              succs :=
                commit apid
                  { sh with stack = AIstmt s2 :: rest }
                  { c with store = store' }
                :: !succs
            end;
            if !succs = [] then [ err_config c ] else !succs
        | Ast.Swhile (e, body) ->
            let reads = ref Aloc.Set.bottom in
            let v = eval ctx sh.env store reads e in
            log_reads ctx ~label ~apstr !reads;
            let succs = ref [] in
            if Bool3.may_be_true v.V.bool3 then begin
              let store' = refine ctx sh.env store multi e ~branch:true in
              succs :=
                commit apid
                  { sh with stack = AIstmt body :: AIstmt s :: rest }
                  { c with store = store' }
                :: !succs
            end;
            if Bool3.may_be_false v.V.bool3 then begin
              let store' = refine ctx sh.env store multi e ~branch:false in
              succs :=
                commit apid { sh with stack = rest } { c with store = store' }
                :: !succs
            end;
            if !succs = [] then [ err_config c ] else !succs
        | Ast.Scobegin bs ->
            let children =
              List.mapi
                (fun i b ->
                  let cpid = apid @ [ (label, i) ] in
                  let cpstr =
                    abstract_pstr ctx
                      (Pstring.enter_branch ~cob:label ~idx:i ~inst:0 apstr)
                  in
                  (cpid, { env = sh.env; stack = [ AIstmt b ]; apstr = cpstr }))
                bs
            in
            let parent =
              {
                sh with
                stack =
                  AIjoin { cob = label; children = List.map fst children }
                  :: rest;
              }
            in
            let procs =
              List.fold_left
                (fun procs (cpid, csh) -> PM.add cpid csh procs)
                (PM.add apid parent c.procs)
                children
            in
            [ normalize { c with procs } ]
        | Ast.Sawait e ->
            let reads = ref Aloc.Set.bottom in
            let v = eval ctx sh.env store reads e in
            log_reads ctx ~label ~apstr !reads;
            if V.is_bottom v then [ err_config c ]
            else if Bool3.may_be_true v.V.bool3 then
              let store' = refine ctx sh.env store multi e ~branch:true in
              [ commit apid { sh with stack = rest } { c with store = store' } ]
            else []
        | Ast.Sacquire x ->
            let alocs = env_find x sh.env in
            if Aloc.Set.is_bottom alocs then [ err_config c ]
            else begin
              log_reads ctx ~label ~apstr alocs;
              log_writes ctx ~label ~apstr alocs;
              (* acquiring sets the lock to 1 *)
              let store = write alocs (V.of_int 1) multi store in
              [ commit apid { sh with stack = rest } { c with store } ]
            end
        | Ast.Srelease x ->
            let alocs = env_find x sh.env in
            if Aloc.Set.is_bottom alocs then [ err_config c ]
            else begin
              log_writes ctx ~label ~apstr alocs;
              let store = write alocs (V.of_int 0) multi store in
              [ commit apid { sh with stack = rest } { c with store } ]
            end
        | Ast.Sblock _ -> assert false)

  (* --- configuration keys and folding (paper section 6) --- *)

  (* Control skeleton of a stack item.  With [`Labels] statements are
     identified by label (Control folding); with [`Text] by their concrete
     syntax, so that alpha-identical code points coincide (Clan folding,
     McDowell's "same sequence of statements"). *)
  let item_skeleton mode = function
    | AIstmt s -> (
        match mode with
        | `Labels -> Printf.sprintf "s%d" s.Ast.label
        | `Text -> "t:" ^ Pretty.stmt_to_string s)
    | AIpop _ -> "pop"
    | AIret { dest; site; _ } ->
        (* branch identity is forgotten under Clan folding: the call
           site would re-distinguish alpha-identical branches *)
        (match mode with
        | `Labels -> Printf.sprintf "ret%d:" site
        | `Text -> "ret:")
        ^ (match dest with
          | None -> ""
          | Some lv -> Format.asprintf "%a" Pretty.pp_lvalue lv)
    | AIjoin { cob; children } -> (
        match mode with
        | `Labels ->
            Format.asprintf "join:%d:%a" cob
              (Format.pp_print_list (fun ppf p ->
                   Format.fprintf ppf "%s"
                     (String.concat "."
                        (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) p))))
              children
        | `Text -> Printf.sprintf "join:%d:%d" cob (List.length children))

  let shape_skeleton mode sh =
    String.concat ";" (List.map (item_skeleton mode) sh.stack)

  (* Branch indices erased from procedure strings under Clan folding. *)
  let clan_pstr sh =
    Pstring.frames sh.apstr
    |> List.map (function
         | Pstring.Fcall { proc; _ } -> Printf.sprintf "c%s" proc
         | Pstring.Fbranch { cob; _ } -> Printf.sprintf "b%d" cob)
    |> String.concat "."

  type key = string

  (* Folding keys are long strings rebuilt per visit; interning them
     into small ids (full-width string hash, see Cobegin_hash) makes
     the worklist table int-keyed: revisit probes stop re-hashing and
     re-comparing whole key strings. *)
  module Key_pool = Cobegin_hash.Pool (struct
    type t = key

    let equal = String.equal
    let hash = Cobegin_hash.hash_string
    let found = ignore
    let added = ignore
  end)

  module Key_tbl = Hashtbl.Make (Int)

  let apid_string apid =
    String.concat "." (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) apid)

  let store_string store =
    AM.bindings store
    |> List.map (fun (l, v) ->
           Format.asprintf "%a=%a" Aloc.pp l V.pp v)
    |> String.concat ","

  let env_string env =
    SM.bindings env
    |> List.map (fun (x, s) -> Format.asprintf "%s=%a" x Aloc.Set.pp s)
    |> String.concat ","

  let key_of ~folding (c : config) : key =
    let err = if c.err then "ERR|" else "" in
    match folding with
    | Exact ->
        err
        ^ String.concat "|"
            (List.map
               (fun (apid, sh) ->
                 apid_string apid ^ "@" ^ shape_skeleton `Labels sh ^ "@"
                 ^ env_string sh.env ^ "@"
                 ^ Pstring.to_string sh.apstr)
               (PM.bindings c.procs))
        ^ "||" ^ store_string c.store
    | Control ->
        err
        ^ String.concat "|"
            (List.map
               (fun (apid, sh) ->
                 apid_string apid ^ "@" ^ shape_skeleton `Labels sh ^ "@"
                 ^ Pstring.to_string sh.apstr)
               (PM.bindings c.procs))
    | Clan ->
        let shapes =
          List.map
            (fun (_, sh) -> shape_skeleton `Text sh ^ "@" ^ clan_pstr sh)
            (PM.bindings c.procs)
        in
        err ^ String.concat "|" (List.sort String.compare shapes)

  (* Join of two configurations with the same key.  Under Control the
     process maps have identical skeletons: environments (including the
     ones saved in stack frames) join pointwise.  Under Clan the incoming
     state's store/multi join into the representative.  Under Exact the
     states are identical. *)
  let join_item i1 i2 =
    match (i1, i2) with
    | AIstmt s, AIstmt _ -> AIstmt s
    | AIpop e1, AIpop e2 -> AIpop (env_join e1 e2)
    | AIret r1, AIret r2 ->
        AIret { r1 with saved_env = env_join r1.saved_env r2.saved_env }
    | AIjoin j, AIjoin _ -> AIjoin j
    | _ -> invalid_arg "Machine.join_item: skeleton mismatch"

  let join_shape s1 s2 =
    {
      env = env_join s1.env s2.env;
      stack = List.map2 join_item s1.stack s2.stack;
      apstr = s1.apstr;
    }

  let join_config ~folding (old_ : config) (new_ : config) : config =
    match folding with
    | Exact -> old_
    | Clan ->
        {
          old_ with
          store = store_join old_.store new_.store;
          multi = Aloc.Set.union old_.multi new_.multi;
        }
    | Control ->
        {
          procs =
            PM.merge
              (fun _ a b ->
                match (a, b) with
                | Some s1, Some s2 -> Some (join_shape s1 s2)
                | Some s, None | None, Some s -> Some s
                | None, None -> None)
              old_.procs new_.procs;
          store = store_join old_.store new_.store;
          multi = Aloc.Set.union old_.multi new_.multi;
          err = old_.err || new_.err;
        }

  let widen_config (old_ : config) (new_ : config) : config =
    { new_ with store = store_widen old_.store new_.store }

  let config_leq (a : config) (b : config) =
    store_leq a.store b.store
    && Aloc.Set.subset a.multi b.multi
    && PM.for_all
         (fun apid sh ->
           match PM.find_opt apid b.procs with
           | None -> true (* clan folding: shapes matched by key, not apid *)
           | Some sh' ->
               env_equal sh.env sh'.env
               || SM.for_all
                    (fun x s -> Aloc.Set.subset s (env_find x sh'.env))
                    sh.env)
         a.procs

  (* --- exploration: the abstract instance of the kernel --- *)

  (* A folded abstract configuration: the join of everything offered
     under its key so far, and how many of those joins grew it. *)
  type node = { mutable cfg : config; mutable visits : int }

  (* One run: its folding and the revisit counts. *)
  type run = {
    ctx : ctx;
    folding : folding;
    mutable revisits : int; (* joins into an existing key *)
    mutable widenings : int;
  }

  module Nodes = struct
    type ctx = run

    (* The shape to fire, with the configuration popped: every shape
       fires from that snapshot, even when a successor joins into the
       popped node in the middle of its expansion. *)
    type action = { snapshot : config; binding : apid * shape }
    type config = node

    type key = int

    module Tbl = Key_tbl

    type pools = { keys : Key_pool.t; nodes : node Tbl.t; fold : folding }

    let new_pools run =
      { keys = Key_pool.create 256; nodes = Tbl.create 256; fold = run.folding }

    (* A new key records the offered node; a known one returns the node
       recorded under it, for [merge] to join into.  The parent does not
       help: a key folds the whole configuration. *)
    let intern p ?parent:_ n =
      let _, k = Key_pool.intern p.keys (key_of ~folding:p.fold n.cfg) in
      match Tbl.find_opt p.nodes k with
      | Some recorded -> (recorded, k)
      | None ->
          Tbl.replace p.nodes k n;
          (n, k)

    let pool_sizes _ = []

    (* The abstract log lives in [ctx.log]. *)
    include Kernel.No_log

    let init run = { cfg = init run.ctx; visits = 0 }

    (* Terminals are recorded as snapshots: a final keeps the store it
       had at the pop.  A configuration with nothing enabled is not
       counted (the abstract engine reports no deadlocks). *)
    let classify run (t : node Kernel.terminals) n =
      let c = n.cfg in
      if c.err then begin
        t.errors <- { n with cfg = c } :: t.errors;
        []
      end
      else if PM.is_empty c.procs then begin
        t.finals <- { n with cfg = c } :: t.finals;
        []
      end
      else
        List.map
          (fun binding -> { snapshot = c; binding })
          (enabled_shapes run.ctx c)

    let fire run _ a =
      ( List.map
          (fun c' -> { cfg = c'; visits = 0 })
          (fire run.ctx a.snapshot a.binding),
        () )

    (* The revisit rule: join, widen after [widen_after] growing joins,
       expand again when the join grew. *)
    let merge run ~into n =
      run.revisits <- run.revisits + 1;
      Obs_metrics.incr m_fold_hits;
      let joined = join_config ~folding:run.folding into.cfg n.cfg in
      if config_leq joined into.cfg then false
      else begin
        into.cfg <-
          (if into.visits >= widen_after then begin
             run.widenings <- run.widenings + 1;
             Obs_metrics.incr m_widenings;
             widen_config into.cfg joined
           end
           else joined);
        into.visits <- into.visits + 1;
        true
      end
  end

  module K = Kernel.Make (Nodes)

  type result = {
    stats : Kernel.stats; (* transitions are shapes fired; no deadlocks *)
    revisits : int; (* joins into an existing key *)
    widenings : int;
    status : Budget.status;
    log : Alog.t;
    final_stores : V.t AM.t list;
  }

  (* Worklist exploration with key folding, on the kernel.  After
     [widen_after] growing joins into the same key, joins become
     widenings, which bounds chains through the store lattice.
     Exhausting the budget stops the run cleanly; the table accumulated
     so far is still a valid under-approximation of the abstract graph
     and the log a valid (partial) instrumentation. *)
  let explore ?(folding = Control) ?(max_configs = 100_000) ?budget ctx :
      result =
    let run = { ctx; folding; revisits = 0; widenings = 0 } in
    let r =
      K.generate ~max_configs ?budget ~log:false ~site:"abstract"
        ~admit:K.no_revisits ~expand:K.all_actions run (K.start run ())
    in
    {
      stats = r.K.stats;
      revisits = run.revisits;
      widenings = run.widenings;
      status = r.K.status;
      log = !(ctx.log);
      final_stores = List.map (fun n -> n.cfg.store) r.K.final_configs;
    }
end
