(* Virtual coarsening (paper Observation 5):

     "Atomic actions of a thread can be combined if they contain at most
      one critical reference."

   The transform rewrites every block, greedily grouping maximal runs of
   simple statements (skip / decl / assign / assert) whose *total* number
   of critical references is at most one into a single [Satomic] block.
   The interleaving semantics executes an atomic block in one transition,
   so the grouped run contributes one state instead of many.  Runs of
   length one are left alone.

   Soundness: a run with at most one critical reference commutes, as one
   action, with every action of every other thread except at that single
   reference — exactly the observation the paper makes.  The qcheck suite
   checks that coarsening preserves the set of reachable final stores on
   random programs. *)

open Cobegin_lang
open Ast

let is_simple (s : stmt) =
  match s.kind with
  | Sskip | Sdecl _ | Sassert _ -> true
  | Sassign _ -> true
  | Smalloc _ | Sfree _ | Scall _ | Sreturn _ | Sblock _ | Sif _ | Swhile _
  | Scobegin _ | Satomic _ | Sawait _ | Sacquire _ | Srelease _ | Sfence ->
      false

(* Group a block's statements.  [conf] is the program's conflict report;
   [fresh] labels the atomic blocks built. *)
let rec group_block ~fresh conf (ss : stmt list) : stmt list =
  let flush run acc =
    match run with
    | [] -> acc
    | [ single ] -> single :: acc
    | _ -> { label = fresh (); kind = Satomic (List.rev run) } :: acc
  in
  let rec go acc run crit = function
    | [] -> List.rev (flush run acc)
    | s :: rest when is_simple s ->
        let c = Critical.stmt_critical conf s in
        if crit + c <= 1 then go acc (s :: run) (crit + c) rest
        else
          (* close the current run and start a new one at [s] *)
          go (flush run acc) [ s ] c rest
    | s :: rest ->
        let s' = coarsen_stmt ~fresh conf s in
        go (s' :: flush run acc) [] 0 rest
  in
  go [] [] 0 ss

and coarsen_stmt ~fresh conf (s : stmt) : stmt =
  match s.kind with
  | Sblock ss -> { s with kind = Sblock (group_block ~fresh conf ss) }
  | Scobegin bs ->
      { s with kind = Scobegin (List.map (coarsen_stmt ~fresh conf) bs) }
  | Sif (c, s1, s2) ->
      {
        s with
        kind =
          Sif (c, coarsen_stmt ~fresh conf s1, coarsen_stmt ~fresh conf s2);
      }
  | Swhile (c, b) -> { s with kind = Swhile (c, coarsen_stmt ~fresh conf b) }
  | _ -> s

(* Coarsen a whole program.  The conflict report is computed once from the
   original program (coarsening does not change accesses).  The blocks
   built are numbered above the program's largest label and every
   original statement keeps its own, so labels stay unique — process
   identity and race reports key statements by label — and the result
   is a function of the program alone. *)
let program (prog : program) : program =
  let conf = Critical.of_program prog in
  let next = ref (List.fold_left max 0 (Ast.labels prog)) in
  let fresh () =
    incr next;
    !next
  in
  {
    procs =
      List.map
        (fun p -> { p with body = coarsen_stmt ~fresh conf p.body })
        prog.procs;
  }
