(* The small-step interleaving semantics (paper sections 2 and 4).

   One transition = one atomic action of one process: a simple statement,
   a branch test, a call/return movement, a cobegin spawn, a join, or a
   whole [atomic] block.  Expressions are pure and are evaluated entirely
   within the action that contains them ([&&]/[||] are strict).

   Under the relaxed memory models (TSO/PSO, in the operational
   store-buffer style of Boudol-Petri) a plain assignment to an existing
   cell does not hit the shared store: it is appended to the process's
   FIFO store buffer, and a separate nondeterministic *flush* transition
   later makes it globally visible.  The process's own reads see its
   buffered writes first (read-own-write-early forwarding).  Under TSO
   only the oldest buffered write may flush; under PSO the oldest write
   *per location* may, so writes to distinct locations reorder.  [fence]
   (and [atomic]/[lock]/[unlock]) only fire on an empty buffer, so they
   act as drain points.  Allocation-carrying statements (decl, malloc,
   call/return plumbing, free) write to the store directly: buffers model
   the data race surface of plain stores, not the allocator.

   Each transition is *instrumented*: it reports the accesses (read/write,
   location, statement label, procedure string) and allocations it
   performs — the data from which the side-effect, dependence and lifetime
   analyses are computed (paper section 5).

   The module also computes the *footprint* of a process's next action
   without committing it (a dry run), which is what the stubborn-set
   reduction compares across processes (paper Algorithm 1). *)

open Cobegin_lang
module LS = Value.LocSet

type model = Sc | Tso | Pso

let model_of_string = function
  | "sc" -> Some Sc
  | "tso" -> Some Tso
  | "pso" -> Some Pso
  | _ -> None

let model_name = function Sc -> "sc" | Tso -> "tso" | Pso -> "pso"

type ctx = {
  prog : Ast.program;
  addr_taken : Ast.StringSet.t; (* variable names whose address is taken *)
  model : model;
}

let make_ctx ?(model = Sc) prog =
  { prog; addr_taken = Ast.addr_taken_of_program prog; model }

(* --- instrumentation events --- *)

type access = {
  a_label : int; (* statement performing the access *)
  a_loc : Value.loc;
  a_kind : [ `Read | `Write ];
  a_pstr : Pstring.t;
  a_pid : Value.pid;
}

type alloc = {
  al_loc : Value.loc;
  al_site : int;
  al_birth : Pstring.t;
  al_heap : bool;
}

type events = { accesses : access list; allocs : alloc list }

let no_events = { accesses = []; allocs = [] }

(* Event logs: the distinct events of an exploration.  A state space
   repeats the same access at every configuration that reaches it, and
   the analyses read only which events occur, so an exploration keeps
   each once.  Events are small pure data, compared structurally and
   hashed by their statement, location and the numbers of their
   procedure string (a callee's name is left to the comparison). *)
let hash_event label loc pstr =
  List.fold_left
    (fun h f ->
      Cobegin_hash.combine h
        (match f with
        | Pstring.Fcall { site; inst; _ } -> Cobegin_hash.combine site inst
        | Pstring.Fbranch { cob; idx; inst } ->
            Cobegin_hash.combine cob (Cobegin_hash.combine idx inst)))
    (Cobegin_hash.combine label (Value.hash_loc loc))
    pstr

module Access_tbl = Hashtbl.Make (struct
  type t = access

  (* Structural equality, field by field: the pid and the procedure
     string of one process's accesses are shared, and compare on [==]. *)
  let equal a b =
    a == b
    || a.a_label = b.a_label
       && a.a_kind == b.a_kind
       && Value.compare_loc a.a_loc b.a_loc = 0
       && Value.compare_pid a.a_pid b.a_pid = 0
       && Pstring.equal a.a_pstr b.a_pstr

  let hash a = hash_event a.a_label a.a_loc a.a_pstr
end)

module Alloc_tbl = Hashtbl.Make (struct
  type t = alloc

  let equal = ( = )
  let hash a = hash_event a.al_site a.al_loc a.al_birth
end)

type log = { l_accesses : unit Access_tbl.t; l_allocs : unit Alloc_tbl.t }

let new_log () =
  { l_accesses = Access_tbl.create 256; l_allocs = Alloc_tbl.create 64 }

let record log evs =
  List.iter (fun a -> Access_tbl.replace log.l_accesses a ()) evs.accesses;
  List.iter (fun a -> Alloc_tbl.replace log.l_allocs a ()) evs.allocs

let absorb ~into log =
  Access_tbl.iter (fun a () -> Access_tbl.replace into.l_accesses a ())
    log.l_accesses;
  Alloc_tbl.iter (fun a () -> Alloc_tbl.replace into.l_allocs a ())
    log.l_allocs

let logged log =
  {
    accesses = Access_tbl.fold (fun a () l -> a :: l) log.l_accesses [];
    allocs = Alloc_tbl.fold (fun a () l -> a :: l) log.l_allocs [];
  }

(* --- expression evaluation --- *)

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Evaluate [e]; accumulate read locations into [reads].  Procedure names
   not shadowed by a binding evaluate to function values. *)
let rec eval ctx env store reads e : Value.t =
  match e with
  | Ast.Eint n -> Value.Vint n
  | Ast.Ebool b -> Value.Vbool b
  | Ast.Evar x -> (
      match Env.find x env with
      | Some loc -> (
          reads := LS.add loc !reads;
          match Store.find loc store with
          | Some v -> v
          | None -> error "variable %s refers to a freed location" x)
      | None ->
          if Ast.has_proc ctx.prog x then Value.Vfun x
          else error "undeclared variable %s" x)
  | Ast.Eaddr x -> (
      match Env.find x env with
      | Some loc -> Value.Vloc loc
      | None -> error "address of undeclared variable %s" x)
  | Ast.Ederef e1 -> (
      match eval ctx env store reads e1 with
      | Value.Vloc loc -> (
          reads := LS.add loc !reads;
          match Store.find loc store with
          | Some v -> v
          | None -> error "dereference of a dangling pointer")
      | v -> error "dereference of a %s value" (Value.type_name v))
  | Ast.Eunop (op, e1) -> (
      let v = eval ctx env store reads e1 in
      match (op, v) with
      | Ast.Not, Value.Vbool b -> Value.Vbool (not b)
      | Ast.Neg, Value.Vint n -> Value.Vint (-n)
      | Ast.Not, v -> error "! applied to a %s value" (Value.type_name v)
      | Ast.Neg, v -> error "unary - applied to a %s value" (Value.type_name v))
  | Ast.Ebinop (op, e1, e2) ->
      let v1 = eval ctx env store reads e1 in
      let v2 = eval ctx env store reads e2 in
      eval_binop op v1 v2

and eval_binop op v1 v2 =
  let open Value in
  let int_op f =
    match (v1, v2) with
    | Vint a, Vint b -> Vint (f a b)
    | _ -> error "arithmetic on %s and %s" (type_name v1) (type_name v2)
  in
  let cmp_op f =
    match (v1, v2) with
    | Vint a, Vint b -> Vbool (f a b)
    | _ -> error "comparison of %s and %s" (type_name v1) (type_name v2)
  in
  let bool_op f =
    match (v1, v2) with
    | Vbool a, Vbool b -> Vbool (f a b)
    | _ ->
        error "boolean operation on %s and %s" (type_name v1) (type_name v2)
  in
  match op with
  | Ast.Add -> (
      match (v1, v2) with
      | Vloc l, Vint n | Vint n, Vloc l -> Vloc { l with l_off = l.l_off + n }
      | _ -> int_op ( + ))
  | Ast.Sub -> (
      match (v1, v2) with
      | Vloc l, Vint n -> Vloc { l with l_off = l.l_off - n }
      | _ -> int_op ( - ))
  | Ast.Mul -> int_op ( * )
  | Ast.Div -> (
      match (v1, v2) with
      | Vint _, Vint 0 -> error "division by zero"
      | _ -> int_op ( / ))
  | Ast.Eq -> Vbool (equal_value v1 v2)
  | Ast.Ne -> Vbool (not (equal_value v1 v2))
  | Ast.Lt -> cmp_op ( < )
  | Ast.Le -> cmp_op ( <= )
  | Ast.Gt -> cmp_op ( > )
  | Ast.Ge -> cmp_op ( >= )
  | Ast.And -> bool_op ( && )
  | Ast.Or -> bool_op ( || )

let eval_bool ctx env store reads e =
  match eval ctx env store reads e with
  | Value.Vbool b -> b
  | v -> error "condition evaluated to a %s value" (Value.type_name v)

(* Resolve an lvalue to the location it denotes.  Reads performed while
   evaluating a [Lderef] expression are accumulated. *)
let resolve_lvalue ctx env store reads = function
  | Ast.Lvar x -> (
      match Env.find x env with
      | Some loc -> loc
      | None -> error "assignment to undeclared variable %s" x)
  | Ast.Lderef e -> (
      match eval ctx env store reads e with
      | Value.Vloc loc -> loc
      | v -> error "assignment through a %s value" (Value.type_name v))

(* --- normalization: unfold administrative items --- *)

let rec normalize_proc (p : Proc.t) : Proc.t option =
  match p.Proc.stack with
  | [] ->
      (* terminated only once its store buffer has drained; until then
         the process stays alive so its flush transitions remain
         visible (and a parent's join keeps waiting) *)
      if p.Proc.buf = [] then None else Some p
  | Proc.Istmt { kind = Ast.Sblock ss; _ } :: rest ->
      let items = List.map (fun s -> Proc.Istmt s) ss in
      normalize_proc (Proc.update ~stack:(items @ (Proc.Ipop p.env :: rest)) p)
  | Proc.Ipop env :: rest -> normalize_proc (Proc.update ~env ~stack:rest p)
  | (Proc.Istmt _ | Proc.Iret _ | Proc.Ijoin _) :: _ -> Some p

(* [c] with [p] normalized into it, or without [p] once it has
   terminated. *)
let settle (p : Proc.t) (c : Config.t) : Config.t =
  match normalize_proc p with
  | Some p' -> Config.update_proc p' c
  | None -> Config.remove_proc p.Proc.pid c

let normalize (c : Config.t) : Config.t =
  Config.PidMap.fold (fun _ p acc -> settle p acc) c.Config.procs c

(* --- initial configuration --- *)

let init ctx : Config.t =
  let entry = Ast.entry_proc ctx.prog in
  let p =
    Proc.make ~pid:Value.root_pid ~env:Env.empty
      ~stack:[ Proc.Istmt entry.Ast.body ]
      ~pstr:Pstring.empty ()
  in
  normalize
    (Config.make
       ~procs:(Config.PidMap.singleton Value.root_pid p)
       ~store:Store.empty ~counters:Counters.empty ~error:None)

(* --- enabledness --- *)

(* The store as process [p] observes it: its own buffered writes overlay
   the shared store, oldest first, so a later buffered write to the same
   location wins (read-own-write-early forwarding).  Physically the
   shared store itself when the buffer is empty — in particular always
   under SC. *)
let effective_store (p : Proc.t) store =
  List.fold_left (fun st (l, v) -> Store.set l v st) store p.Proc.buf

(* Synchronization actions fire only on an empty store buffer: they are
   the drain points of the relaxed semantics.  (Trivially true under SC,
   where buffers are always empty.) *)
let requires_empty_buffer (s : Ast.stmt) =
  match s.Ast.kind with
  | Ast.Sfence | Ast.Satomic _ | Ast.Sacquire _ | Ast.Srelease _ -> true
  | _ -> false

(* A process whose next action is [await]/[lock] with a false condition is
   disabled; a join with live children is disabled; a sync action with a
   non-empty store buffer is disabled (flushes must drain it first).
   Every other process with a non-empty stack is enabled.  Evaluation
   failures count as enabled: firing them yields the error
   configuration. *)
let enabled_proc ctx (c : Config.t) (p : Proc.t) : bool =
  match p.Proc.stack with
  | [] -> false (* fully terminated, or only flushes remain *)
  | Proc.Ipop _ :: _ -> assert false (* configurations are normalized *)
  | Proc.Iret _ :: _ -> true
  | Proc.Ijoin { children; _ } :: _ ->
      List.for_all (fun pid -> Config.find_proc pid c = None) children
  | Proc.Istmt s :: _ -> (
      if requires_empty_buffer s && p.Proc.buf <> [] then false
      else
        match s.Ast.kind with
        | Ast.Sawait e -> (
            let reads = ref LS.empty in
            try eval_bool ctx p.env (effective_store p c.Config.store) reads e
            with Runtime_error _ -> true)
        | Ast.Sacquire x -> (
            match Env.find x p.env with
            | None -> true (* firing reports the error *)
            | Some loc -> (
                match Store.find loc c.Config.store with
                | Some (Value.Vint 0) -> true
                | Some _ -> false
                | None -> true))
        | _ -> true)

let enabled_processes ctx c =
  if Config.is_error c then []
  else List.filter (enabled_proc ctx c) (Config.processes c)

(* --- footprints (dry runs) --- *)

type footprint = { freads : LS.t; fwrites : LS.t }

let empty_footprint = { freads = LS.empty; fwrites = LS.empty }

let footprint_conflict f1 f2 =
  (not (LS.is_empty (LS.inter f1.fwrites (LS.union f2.freads f2.fwrites))))
  || not (LS.is_empty (LS.inter f2.fwrites f1.freads))

(* Dry-run of evaluating an expression: just the read set; errors give the
   reads collected so far. *)
let expr_reads ctx env store e =
  let reads = ref LS.empty in
  (try ignore (eval ctx env store reads e) with Runtime_error _ -> ());
  !reads

let lvalue_footprint ctx env store lv =
  let reads = ref LS.empty in
  let write =
    try Some (resolve_lvalue ctx env store reads lv) with Runtime_error _ -> None
  in
  (!reads, write)

(* Footprint of one simple statement, given current env/store (used both
   for single statements and within atomic blocks). *)
let simple_stmt_footprint ctx env store (s : Ast.stmt) : footprint =
  match s.Ast.kind with
  | Ast.Sskip -> empty_footprint
  | Ast.Sdecl (_, e) ->
      { freads = expr_reads ctx env store e; fwrites = LS.empty }
      (* the declared cell is fresh: invisible to others *)
  | Ast.Sassign (lv, e) ->
      let r1, w = lvalue_footprint ctx env store lv in
      let r2 = expr_reads ctx env store e in
      {
        freads = LS.union r1 r2;
        fwrites = (match w with Some l -> LS.singleton l | None -> LS.empty);
      }
  | Ast.Sassert e -> { freads = expr_reads ctx env store e; fwrites = LS.empty }
  | _ -> invalid_arg "simple_stmt_footprint"

(* Footprint of the next action of a process.  Dry runs evaluate against
   the process's effective store, so lvalue resolution sees its own
   buffered writes (identical to the shared store under SC). *)
let action_footprint ctx (c : Config.t) (p : Proc.t) : footprint =
  let store = effective_store p c.Config.store in
  let env = p.Proc.env in
  match p.Proc.stack with
  | [] -> empty_footprint
  | Proc.Ipop _ :: _ -> empty_footprint
  | Proc.Ijoin _ :: _ -> empty_footprint
  | Proc.Iret { dest; saved_env; _ } :: _ ->
      (* fall-through return writes the destination with the default *)
      (match dest with
      | None -> empty_footprint
      | Some lv ->
          let r, w = lvalue_footprint ctx saved_env store lv in
          {
            freads = r;
            fwrites = (match w with Some l -> LS.singleton l | None -> LS.empty);
          })
  | Proc.Istmt s :: rest -> (
      match s.Ast.kind with
      | Ast.Sfence -> empty_footprint
      | Ast.Sskip | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sassert _ ->
          simple_stmt_footprint ctx env store s
      | Ast.Smalloc (lv, e) ->
          let r1, w = lvalue_footprint ctx env store lv in
          let r2 = expr_reads ctx env store e in
          {
            freads = LS.union r1 r2;
            fwrites = (match w with Some l -> LS.singleton l | None -> LS.empty);
          }
      | Ast.Sfree e -> (
          (* freeing invalidates cells: treat as writes to the block *)
          let reads = ref LS.empty in
          match eval ctx env store reads e with
          | Value.Vloc l -> (
              match Store.block_cells l store with
              | Some cells -> { freads = !reads; fwrites = cells }
              | None -> { freads = !reads; fwrites = LS.empty })
          | _ | (exception Runtime_error _) ->
              { freads = !reads; fwrites = LS.empty })
      | Ast.Scall (_, callee, args) ->
          let reads =
            List.fold_left
              (fun acc e -> LS.union acc (expr_reads ctx env store e))
              (expr_reads ctx env store callee)
              args
          in
          (* parameters are fresh cells; destination is written at return *)
          { freads = reads; fwrites = LS.empty }
      | Ast.Sreturn e_opt -> (
          let r0 =
            match e_opt with
            | Some e -> expr_reads ctx env store e
            | None -> LS.empty
          in
          (* find the pending return to locate the destination *)
          let rec find = function
            | Proc.Iret { dest; saved_env; _ } :: _ -> Some (dest, saved_env)
            | Proc.Ijoin _ :: _ -> None
            | _ :: tl -> find tl
            | [] -> None
          in
          match find rest with
          | Some (Some lv, saved_env) ->
              let r1, w = lvalue_footprint ctx saved_env store lv in
              {
                freads = LS.union r0 r1;
                fwrites =
                  (match w with Some l -> LS.singleton l | None -> LS.empty);
              }
          | _ -> { freads = r0; fwrites = LS.empty })
      | Ast.Sif (e, _, _) | Ast.Swhile (e, _) | Ast.Sawait e ->
          { freads = expr_reads ctx env store e; fwrites = LS.empty }
      | Ast.Sacquire x -> (
          match Env.find x env with
          | Some l -> { freads = LS.singleton l; fwrites = LS.singleton l }
          | None -> empty_footprint)
      | Ast.Srelease x -> (
          match Env.find x env with
          | Some l -> { freads = LS.empty; fwrites = LS.singleton l }
          | None -> empty_footprint)
      | Ast.Scobegin _ -> empty_footprint
      | Ast.Satomic ss ->
          (* dry-run the block on scratch state *)
          let rec go env store acc = function
            | [] -> acc
            | (s' : Ast.stmt) :: tl -> (
                let fp = simple_stmt_footprint ctx env store s' in
                let acc =
                  {
                    freads = LS.union acc.freads fp.freads;
                    fwrites = LS.union acc.fwrites fp.fwrites;
                  }
                in
                (* commit the effect so later footprints see it *)
                match s'.Ast.kind with
                | Ast.Sdecl (x, e) -> (
                    let reads = ref LS.empty in
                    match eval ctx env store reads e with
                    | v ->
                        let loc =
                          {
                            Value.l_pid = p.Proc.pid;
                            l_site = s'.Ast.label;
                            l_seq = max_int (* scratch: never compared *);
                            l_off = 0;
                          }
                        in
                        let store =
                          Store.alloc ~birth:p.Proc.pstr loc v store
                        in
                        go (Env.bind x loc env) store acc tl
                    | exception Runtime_error _ -> acc)
                | Ast.Sassign (lv, e) -> (
                    let reads = ref LS.empty in
                    match
                      let v = eval ctx env store reads e in
                      let l = resolve_lvalue ctx env store reads lv in
                      (v, l)
                    with
                    | v, l -> go env (Store.set l v store) acc tl
                    | exception Runtime_error _ -> acc)
                | _ -> go env store acc tl)
          in
          go env store empty_footprint ss
      | Ast.Sblock _ -> assert false (* normalized away *))

(* --- firing transitions --- *)

let read_events ~label ~pstr ~pid reads =
  LS.fold
    (fun l acc ->
      { a_label = label; a_loc = l; a_kind = `Read; a_pstr = pstr; a_pid = pid }
      :: acc)
    reads []

let write_event ~label ~pstr ~pid l =
  { a_label = label; a_loc = l; a_kind = `Write; a_pstr = pstr; a_pid = pid }

(* Execute one simple statement (skip/decl/assign/assert) for process [p],
   threading env, configuration (store + counters) and events.  Reads go
   through the process's effective store (forwarding from its buffer);
   writes and allocations commit to the shared store — callers guarantee
   the buffer is empty whenever a statement writing an existing cell gets
   here (SC always; non-SC only inside [atomic], which drains first).
   Raises [Runtime_error]. *)
let exec_simple ctx (p : Proc.t) (env, c, evs) (s : Ast.stmt) =
  let label = s.Ast.label in
  let pstr = p.Proc.pstr and pid = p.Proc.pid in
  let store = c.Config.store in
  let rstore = effective_store p store in
  match s.Ast.kind with
  | Ast.Sskip | Ast.Sfence -> (env, c, evs)
  | Ast.Sdecl (x, e) ->
      let reads = ref LS.empty in
      let v = eval ctx env rstore reads e in
      let seq, c = Config.next_seq ~pid ~site:label c in
      let loc = { Value.l_pid = pid; l_site = label; l_seq = seq; l_off = 0 } in
      let exposed = Ast.StringSet.mem x ctx.addr_taken in
      let store = Store.alloc ~exposed ~birth:pstr loc v store in
      let evs =
        {
          accesses =
            (write_event ~label ~pstr ~pid loc :: read_events ~label ~pstr ~pid !reads)
            @ evs.accesses;
          allocs =
            { al_loc = loc; al_site = label; al_birth = pstr; al_heap = false }
            :: evs.allocs;
        }
      in
      (Env.bind x loc env, Config.with_store store c, evs)
  | Ast.Sassign (lv, e) ->
      let reads = ref LS.empty in
      let v = eval ctx env rstore reads e in
      let l = resolve_lvalue ctx env rstore reads lv in
      if not (Store.mem l store) then error "write to a freed or invalid location";
      let evs =
        {
          evs with
          accesses =
            (write_event ~label ~pstr ~pid l :: read_events ~label ~pstr ~pid !reads)
            @ evs.accesses;
        }
      in
      (env, Config.with_store (Store.set l v store) c, evs)
  | Ast.Sassert e ->
      let reads = ref LS.empty in
      let b = eval_bool ctx env rstore reads e in
      if not b then error "assertion failed at statement %d" label;
      let evs =
        { evs with accesses = read_events ~label ~pstr ~pid !reads @ evs.accesses }
      in
      (env, c, evs)
  | _ -> invalid_arg "exec_simple"

(* Fire the next action of process [p] in configuration [c].  The caller
   must have checked [enabled_proc].  Returns the successor configuration
   (normalized) and the instrumentation events of the action.  [c] is
   normalized, so only [p] and the children a cobegin spawns can need
   it: each is [settle]d, and every other process is left alone. *)
let fire ctx (c : Config.t) (p : Proc.t) : Config.t * events =
  let pid = p.Proc.pid and pstr = p.Proc.pstr in
  let store = c.Config.store in
  let rstore = effective_store p store in
  try
    match p.Proc.stack with
    | [] -> invalid_arg "Step.fire: terminated process"
    | Proc.Ipop _ :: _ -> invalid_arg "Step.fire: unnormalized configuration"
    | Proc.Ijoin _ :: rest ->
        (settle (Proc.update ~stack:rest p) c, no_events)
    | Proc.Iret { dest; saved_env; site } :: rest ->
        (* fall off the end of a procedure: return the default value.
           The destination write belongs to the caller, at the call
           statement. *)
        let caller_pstr = Pstring.exit_frame pstr in
        let reads = ref LS.empty in
        let c, evs =
          match dest with
          | None -> (c, no_events)
          | Some lv ->
              let l = resolve_lvalue ctx saved_env rstore reads lv in
              if not (Store.mem l store) then
                error "write to a freed or invalid location";
              ( Config.with_store (Store.set l (Value.Vint 0) store) c,
                {
                  accesses =
                    write_event ~label:site ~pstr:caller_pstr ~pid l
                    :: read_events ~label:site ~pstr:caller_pstr ~pid !reads;
                  allocs = [];
                } )
        in
        let p' =
          Proc.update ~env:saved_env ~stack:rest
            ~pstr:(Pstring.exit_frame pstr) p
        in
        (settle p' c, evs)
    | Proc.Istmt s :: rest -> (
        let label = s.Ast.label in
        match s.Ast.kind with
        | Ast.Sassign (lv, e) when ctx.model <> Sc ->
            (* relaxed: the write enters this process's store buffer; a
               later flush action publishes it.  The access events are
               charged here, at the program-order point of the store. *)
            let reads = ref LS.empty in
            let v = eval ctx p.env rstore reads e in
            let l = resolve_lvalue ctx p.env rstore reads lv in
            if not (Store.mem l rstore) then
              error "write to a freed or invalid location";
            let evs =
              {
                accesses =
                  write_event ~label ~pstr ~pid l
                  :: read_events ~label ~pstr ~pid !reads;
                allocs = [];
              }
            in
            ( settle
                (Proc.update ~stack:rest ~buf:(p.Proc.buf @ [ (l, v) ]) p)
                c,
              evs )
        | Ast.Sskip | Ast.Sfence | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sassert _
          ->
            let env, c, evs = exec_simple ctx p (p.env, c, no_events) s in
            (settle (Proc.update ~env ~stack:rest p) c, evs)
        | Ast.Satomic ss ->
            let env, c, evs =
              List.fold_left (exec_simple ctx p) (p.env, c, no_events) ss
            in
            (settle (Proc.update ~env ~stack:rest p) c, evs)
        | Ast.Smalloc (lv, e) ->
            let reads = ref LS.empty in
            let size =
              match eval ctx p.env rstore reads e with
              | Value.Vint n when n >= 0 -> n
              | Value.Vint n -> error "malloc with negative size %d" n
              | v -> error "malloc size is a %s value" (Value.type_name v)
            in
            let seq, c = Config.next_seq ~pid ~site:label c in
            let base =
              { Value.l_pid = pid; l_site = label; l_seq = seq; l_off = 0 }
            in
            let store = c.Config.store in
            let store, allocs =
              List.fold_left
                (fun (store, allocs) i ->
                  let cell = { base with Value.l_off = i } in
                  ( Store.alloc ~heap:true ~birth:pstr cell (Value.Vint 0) store,
                    {
                      al_loc = cell;
                      al_site = label;
                      al_birth = pstr;
                      al_heap = true;
                    }
                    :: allocs ))
                (store, [])
                (List.init size (fun i -> i))
            in
            let store = Store.register_block base size store in
            let l = resolve_lvalue ctx p.env (effective_store p store) reads lv in
            if not (Store.mem l store) then
              error "write to a freed or invalid location";
            let store = Store.set l (Value.Vloc base) store in
            let evs =
              {
                accesses =
                  write_event ~label ~pstr ~pid l
                  :: read_events ~label ~pstr ~pid !reads;
                allocs;
              }
            in
            ( settle (Proc.update ~stack:rest p) (Config.with_store store c),
              evs )
        | Ast.Sfree e -> (
            let reads = ref LS.empty in
            match eval ctx p.env rstore reads e with
            | Value.Vloc l when l.Value.l_off = 0 -> (
                match Store.block_cells l store with
                | None -> error "free of a non-malloc pointer"
                | Some cells ->
                    if
                      (not (LS.is_empty cells))
                      && not (Store.mem (LS.min_elt cells) store)
                    then error "double free";
                    let store = Store.free cells store in
                    let evs =
                      {
                        accesses =
                          LS.fold
                            (fun cell acc ->
                              write_event ~label ~pstr ~pid cell :: acc)
                            cells
                            (read_events ~label ~pstr ~pid !reads);
                        allocs = [];
                      }
                    in
                    ( settle
                        (Proc.update ~stack:rest p)
                        (Config.with_store store c),
                      evs ))
            | Value.Vloc _ -> error "free of an interior pointer"
            | v -> error "free of a %s value" (Value.type_name v))
        | Ast.Scall (dest, callee, args) ->
            let reads = ref LS.empty in
            let fname =
              match eval ctx p.env rstore reads callee with
              | Value.Vfun f -> f
              | v -> error "call of a %s value" (Value.type_name v)
            in
            let callee_proc =
              match Ast.find_proc ctx.prog fname with
              | Some pr -> pr
              | None -> error "call of unknown procedure %s" fname
            in
            if List.length args <> List.length callee_proc.Ast.params then
              error "procedure %s expects %d argument(s), got %d" fname
                (List.length callee_proc.Ast.params)
                (List.length args);
            let arg_vals = List.map (eval ctx p.env rstore reads) args in
            let seq, c = Config.next_seq ~pid ~site:label c in
            let new_pstr =
              Pstring.enter_call ~proc:fname ~site:label ~inst:seq pstr
            in
            let store = c.Config.store in
            let store, env', allocs, writes =
              List.fold_left
                (fun (store, env', allocs, writes) (i, (x, v)) ->
                  let cell =
                    { Value.l_pid = pid; l_site = label; l_seq = seq; l_off = i }
                  in
                  let exposed = Ast.StringSet.mem x ctx.addr_taken in
                  ( Store.alloc ~exposed ~birth:new_pstr cell v store,
                    Env.bind x cell env',
                    {
                      al_loc = cell;
                      al_site = label;
                      al_birth = new_pstr;
                      al_heap = false;
                    }
                    :: allocs,
                    write_event ~label ~pstr:new_pstr ~pid cell :: writes ))
                (store, Env.empty, [], [])
                (List.mapi (fun i xv -> (i, xv))
                   (List.combine callee_proc.Ast.params arg_vals))
            in
            let p' =
              Proc.update ~env:env' ~pstr:new_pstr
                ~stack:
                  (Proc.Istmt callee_proc.Ast.body
                  :: Proc.Iret { dest; saved_env = p.env; site = label }
                  :: rest)
                p
            in
            let evs =
              {
                accesses = writes @ read_events ~label ~pstr ~pid !reads;
                allocs;
              }
            in
            (settle p' (Config.with_store store c), evs)
        | Ast.Sreturn e_opt ->
            let reads = ref LS.empty in
            let v =
              match e_opt with
              | Some e -> eval ctx p.env rstore reads e
              | None -> Value.Vint 0
            in
            let rec unwind = function
              | Proc.Iret { dest; saved_env; site } :: tl ->
                  (dest, saved_env, site, tl)
              | Proc.Ijoin _ :: _ ->
                  error "return crosses a cobegin boundary"
              | Proc.Ipop _ :: tl | Proc.Istmt _ :: tl -> unwind tl
              | [] -> error "return outside a procedure"
            in
            let dest, saved_env, site, tail = unwind rest in
            (* the destination write belongs to the caller, at the call
               statement *)
            let caller_pstr = Pstring.exit_frame pstr in
            let c, wevs =
              match dest with
              | None -> (c, [])
              | Some lv ->
                  let dreads = ref LS.empty in
                  let l = resolve_lvalue ctx saved_env rstore dreads lv in
                  if not (Store.mem l store) then
                    error "write to a freed or invalid location";
                  ( Config.with_store (Store.set l v store) c,
                    write_event ~label:site ~pstr:caller_pstr ~pid l
                    :: read_events ~label:site ~pstr:caller_pstr ~pid !dreads )
            in
            let p' =
              Proc.update ~env:saved_env ~stack:tail
                ~pstr:(Pstring.exit_frame pstr) p
            in
            let evs =
              { accesses = wevs @ read_events ~label ~pstr ~pid !reads; allocs = [] }
            in
            (settle p' c, evs)
        | Ast.Sif (e, s1, s2) ->
            let reads = ref LS.empty in
            let b = eval_bool ctx p.env rstore reads e in
            let chosen = if b then s1 else s2 in
            let p' = Proc.update ~stack:(Proc.Istmt chosen :: rest) p in
            ( settle p' c,
              { accesses = read_events ~label ~pstr ~pid !reads; allocs = [] } )
        | Ast.Swhile (e, body) ->
            let reads = ref LS.empty in
            let b = eval_bool ctx p.env rstore reads e in
            let stack =
              if b then Proc.Istmt body :: Proc.Istmt s :: rest else rest
            in
            ( settle (Proc.update ~stack p) c,
              { accesses = read_events ~label ~pstr ~pid !reads; allocs = [] } )
        | Ast.Scobegin bs ->
            let seq, c = Config.next_seq ~pid ~site:label c in
            let children =
              List.mapi
                (fun i b ->
                  Proc.make
                    ~pid:(Value.child_pid pid ~cob:label ~idx:i)
                    ~env:p.env
                    ~stack:[ Proc.Istmt b ]
                    ~pstr:(Pstring.enter_branch ~cob:label ~idx:i ~inst:seq pstr)
                    ())
                bs
            in
            let parent =
              Proc.update
                ~stack:
                  (Proc.Ijoin
                     {
                       cob = label;
                       children = List.map (fun ch -> ch.Proc.pid) children;
                     }
                  :: rest)
                p
            in
            let c = List.fold_left (fun c ch -> settle ch c) c children in
            (settle parent c, no_events)
        | Ast.Sawait e ->
            let reads = ref LS.empty in
            let b = eval_bool ctx p.env rstore reads e in
            if not b then invalid_arg "Step.fire: await not enabled";
            ( settle (Proc.update ~stack:rest p) c,
              { accesses = read_events ~label ~pstr ~pid !reads; allocs = [] } )
        | Ast.Sacquire x -> (
            match Env.find x p.env with
            | None -> error "lock of undeclared variable %s" x
            | Some l -> (
                match Store.find l store with
                | Some (Value.Vint 0) ->
                    let store = Store.set l (Value.Vint 1) store in
                    ( settle
                        (Proc.update ~stack:rest p)
                        (Config.with_store store c),
                      {
                        accesses =
                          [
                            write_event ~label ~pstr ~pid l;
                            {
                              a_label = label;
                              a_loc = l;
                              a_kind = `Read;
                              a_pstr = pstr;
                              a_pid = pid;
                            };
                          ];
                        allocs = [];
                      } )
                | Some _ -> invalid_arg "Step.fire: lock not enabled"
                | None -> error "lock of a freed location"))
        | Ast.Srelease x -> (
            match Env.find x p.env with
            | None -> error "unlock of undeclared variable %s" x
            | Some l ->
                if not (Store.mem l store) then error "unlock of a freed location";
                let store = Store.set l (Value.Vint 0) store in
                ( settle
                    (Proc.update ~stack:rest p)
                    (Config.with_store store c),
                  {
                    accesses = [ write_event ~label ~pstr ~pid l ];
                    allocs = [];
                  } ))
        | Ast.Sblock _ -> assert false (* normalized away *))
  with Runtime_error msg -> (Config.with_error msg c, no_events)

(* --- flush transitions and the action interface --- *)

(* Publish process [p]'s oldest buffered write to location [l]: remove it
   from the buffer and commit it to the shared store.  For TSO callers
   pass the buffer head's location (FIFO); for PSO any pending location
   is eligible, and taking the oldest entry *per location* preserves
   program order per location while letting distinct locations reorder. *)
let fire_flush _ctx (c : Config.t) (p : Proc.t) (l : Value.loc) :
    Config.t * events =
  let rec remove_oldest acc = function
    | [] -> invalid_arg "Step.fire_flush: no buffered write to that location"
    | (l', v) :: tl when Value.compare_loc l' l = 0 ->
        (List.rev_append acc tl, v)
    | entry :: tl -> remove_oldest (entry :: acc) tl
  in
  let buf, v = remove_oldest [] p.Proc.buf in
  let p' = Proc.update ~buf p in
  if not (Store.mem l c.Config.store) then
    (* the cell was freed while the write sat in the buffer *)
    (Config.with_error "flush to a freed location" c, no_events)
  else
    ( settle p' (Config.with_store (Store.set l v c.Config.store) c),
      no_events )

(* One scheduling alternative: run a process's next statement-level
   action, or flush one of its buffered writes.  Under SC the action
   list is exactly [Arun] of each enabled process, in the same order —
   SC exploration is byte-for-byte the pre-buffer semantics. *)
type action = Arun of Proc.t | Aflush of Proc.t * Value.loc

let action_pid = function Arun p | Aflush (p, _) -> p.Proc.pid

(* The flush alternatives a process's buffer currently offers. *)
let flush_actions model (p : Proc.t) : action list =
  match (model, p.Proc.buf) with
  | _, [] | Sc, _ -> []
  | Tso, (l, _) :: _ -> [ Aflush (p, l) ]
  | Pso, buf ->
      (* one alternative per distinct pending location, oldest-first
         order of first occurrence (deterministic across runs) *)
      let distinct =
        List.fold_left
          (fun acc (l, _) ->
            if List.exists (fun l' -> Value.compare_loc l' l = 0) acc then acc
            else l :: acc)
          [] buf
      in
      List.rev_map (fun l -> Aflush (p, l)) distinct

let enabled_actions ctx (c : Config.t) : action list =
  if Config.is_error c then []
  else
    List.concat_map
      (fun p ->
        let runs = if enabled_proc ctx c p then [ Arun p ] else [] in
        runs @ flush_actions ctx.model p)
      (Config.processes c)

let fire_action ctx (c : Config.t) = function
  | Arun p -> fire ctx c p
  | Aflush (p, l) -> fire_flush ctx c p l

(* Footprint of an action: a flush writes its location (the read of the
   buffered value is process-local). *)
let action_footprint_of ctx (c : Config.t) = function
  | Arun p -> action_footprint ctx c p
  | Aflush (_, l) -> { freads = LS.empty; fwrites = LS.singleton l }

(* All successors of a configuration with the firing process and events:
   the full expansion of the paper's ordinary state-space generation
   (flush actions included under TSO/PSO). *)
let successors ctx (c : Config.t) : (Value.pid * Config.t * events) list =
  List.map
    (fun a ->
      let c', evs = fire_action ctx c a in
      (action_pid a, c', evs))
    (enabled_actions ctx c)
