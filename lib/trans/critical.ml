(* Critical references (paper Definition 4):

     "A reference is a critical reference if it is a read to a variable
      which may be written by another thread, or a write to a variable
      which may be read or written by another thread."

   We approximate "may be accessed by another thread" syntactically: for
   every cobegin in the program and every pair of distinct branches, the
   *free* variable names accessed by both (with a write on at least one
   side) are conflicting.  Branch summaries are [Access.summary]: heap
   accesses (dereferences, frees) are tracked by a single memory token,
   procedure calls contribute their transitive memory effects, and a name
   bound inside a branch is local to it and never conflicts under that
   cobegin.  An address-taken name conflicts with the other branch's
   pointer accesses too. *)

open Cobegin_lang
open Ast
module SS = Ast.StringSet

type conflicts = {
  names : SS.t; (* variable names with a cross-thread conflict *)
  mem : bool; (* heap/pointer accesses conflict across threads *)
}

let no_conflicts = { names = SS.empty; mem = false }

(* Conflicting accesses between two summaries: w1 against r2∪w2 and w2
   against r1 by name, and, as [Lockset] pairs the memory token with
   address-taken names, a pointer write against an address-taken name
   the other side reads or writes, and a pointer read against one it
   writes. *)
let summary_conflicts ~addr_taken (a : Access.summary) (b : Access.summary) :
    conflicts =
  let by_name =
    SS.union
      (SS.inter a.wvars (SS.union b.rvars b.wvars))
      (SS.inter b.wvars a.rvars)
  in
  let through_pointer (a : Access.summary) (b : Access.summary) =
    SS.inter addr_taken
      (SS.union
         (if a.mem_write then SS.union b.rvars b.wvars else SS.empty)
         (if a.mem_read then b.wvars else SS.empty))
  in
  let aliased = SS.union (through_pointer a b) (through_pointer b a) in
  let mem =
    (a.mem_write && (b.mem_read || b.mem_write))
    || (b.mem_write && a.mem_read)
    || not (SS.is_empty aliased)
  in
  { names = SS.union by_name aliased; mem }

let union_conflicts a b = { names = SS.union a.names b.names; mem = a.mem || b.mem }

(* All cross-branch conflicts of a program. *)
let of_program (prog : program) : conflicts =
  let access = Access.of_program prog in
  let addr_taken = addr_taken_of_program prog in
  fold_program
    (fun acc s ->
      match s.kind with
      | Scobegin bs ->
          let sums = List.map (Access.summary access) bs in
          let rec pairs acc = function
            | [] -> acc
            | x :: rest ->
                let acc =
                  List.fold_left
                    (fun acc y ->
                      union_conflicts acc (summary_conflicts ~addr_taken x y))
                    acc rest
                in
                pairs acc rest
          in
          pairs acc sums
      | _ -> acc)
    no_conflicts prog

(* Number of critical references in an expression under [conf]. *)
let rec expr_critical conf = function
  | Eint _ | Ebool _ | Eaddr _ -> 0
  | Evar x -> if SS.mem x conf.names then 1 else 0
  | Eunop (_, e) -> expr_critical conf e
  | Ebinop (_, e1, e2) -> expr_critical conf e1 + expr_critical conf e2
  | Ederef e -> (if conf.mem then 1 else 0) + expr_critical conf e

(* Number of critical references of one *simple* statement (the only kinds
   virtual coarsening groups). *)
let stmt_critical conf (s : stmt) : int =
  match s.kind with
  | Sskip -> 0
  | Sdecl (_, e) -> expr_critical conf e (* fresh binding: write not critical *)
  | Sassert e -> expr_critical conf e
  | Sassign (Lvar x, e) ->
      (if SS.mem x conf.names then 1 else 0) + expr_critical conf e
  | Sassign (Lderef p, e) ->
      (if conf.mem then 1 else 0) + expr_critical conf p + expr_critical conf e
  | _ -> invalid_arg "Critical.stmt_critical: not a simple statement"

let pp ppf c =
  Format.fprintf ppf "conflicting names: {%s}%s"
    (String.concat ", " (SS.elements c.names))
    (if c.mem then " + memory" else "")
