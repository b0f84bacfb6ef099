(* May-access of a process's whole continuation.

   Algorithm 1 of the paper compares the read/write sets of each process's
   next actions against the other processes; for soundness of the
   reduction the comparison must cover everything the other process may
   ever do, so we take the syntactic summary of every item left on its
   stack, resolved against the environment in force at that point
   (environments are stored in the [Ipop]/[Iret] frames, so the resolution
   is exact per frame).  Names that do not resolve denote locations that
   do not exist yet — fresh, hence conflict-free.  Pointer accesses are
   covered by the memory token, which concretizes to every heap cell and
   every address-taken variable. *)

open Cobegin_lang
open Cobegin_semantics
module LS = Value.LocSet
module SS = Ast.StringSet

type t = {
  freads : LS.t;
  fwrites : LS.t;
  mem_read : bool;
  mem_write : bool;
}

let empty =
  { freads = LS.empty; fwrites = LS.empty; mem_read = false; mem_write = false }

module Memo = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

(* Program-level context: procedure effect summaries, and the summaries
   of the processes seen so far.  The memo belongs to one exploration,
   never to the whole OS process: [Proc.equal] identifies statements by
   label, and two programs number their labels alike. *)
type ctx = {
  effects : string -> Access.proc_effects option;
  any : Access.proc_effects;
  memo : t Memo.t;
}

let make_ctx (prog : Ast.program) : ctx =
  let effects = Access.proc_effects_of_program prog in
  let any =
    List.fold_left
      (fun acc p -> Access.union_effects acc (effects p.Ast.pname))
      Access.no_effects prog.Ast.procs
  in
  let effects_opt f = if Ast.has_proc prog f then Some (effects f) else None in
  { effects = effects_opt; any; memo = Memo.create 64 }

let resolve env names =
  SS.fold
    (fun x acc ->
      match Env.find x env with Some l -> LS.add l acc | None -> acc)
    names LS.empty

(* Future accesses of process [p]: fold over its stack, tracking the
   environment in force for each item. *)
let summarize ctx (p : Proc.t) : t =
  let add_summary env (sum : Access.summary) acc =
    {
      freads = LS.union acc.freads (resolve env sum.Access.rvars);
      fwrites = LS.union acc.fwrites (resolve env sum.Access.wvars);
      mem_read = acc.mem_read || sum.Access.mem_read;
      mem_write = acc.mem_write || sum.Access.mem_write;
    }
  in
  let rec go env acc = function
    | [] -> acc
    | Proc.Istmt s :: rest ->
        let sum = Access.stmt_summary ~effects:ctx.effects ~any:ctx.any s in
        go env (add_summary env sum acc) rest
    | Proc.Ipop e :: rest -> go e acc rest
    | Proc.Iret { dest; saved_env; _ } :: rest ->
        let acc =
          match dest with
          | None -> acc
          | Some lv ->
              add_summary saved_env (Access.writes_of_lvalue lv) acc
        in
        go saved_env acc rest
    | Proc.Ijoin _ :: rest ->
        (* children are separate processes and carry their own summaries *)
        go env acc rest
  in
  go p.Proc.env empty p.Proc.stack

(* The summary depends on the process alone, so it is computed once per
   distinct process; pooled processes hit on [==]. *)
let of_process ctx p =
  match Memo.find_opt ctx.memo p with
  | Some a -> a
  | None ->
      let a = summarize ctx p in
      Memo.add ctx.memo p a;
      a

(* Does a concrete next-action footprint conflict with a future summary?
   [store] supplies the memory-coverage test for the token. *)
let conflicts_footprint store (fp : Step.footprint) (fut : t) : bool =
  let mem_covered ls = LS.exists (fun l -> Store.is_mem_covered l store) ls in
  (not (LS.disjoint fp.Step.fwrites fut.freads))
  || (not (LS.disjoint fp.Step.fwrites fut.fwrites))
  || (not (LS.disjoint fp.Step.freads fut.fwrites))
  || ((fut.mem_read || fut.mem_write) && mem_covered fp.Step.fwrites)
  || (fut.mem_write && mem_covered fp.Step.freads)

let pp ppf a =
  Format.fprintf ppf "reads=%d locs%s writes=%d locs%s" (LS.cardinal a.freads)
    (if a.mem_read then "+mem" else "")
    (LS.cardinal a.fwrites)
    (if a.mem_write then "+mem" else "")
