(* Configurations: the global states of the interleaving semantics
   (paper section 2): the set of live processes plus the shared store,
   the allocation counters, and an optional error marker.

   Equality and hashing go through the hash-consed digest so that the
   exploration engine folds states reached by different interleavings;
   the canonical representation [repr] is the oracle it is tested
   against.  Instrumentation metadata (birthdates, heap-ness) is
   excluded: it is functionally determined by the rest. *)

module PidMap = Map.Make (struct
  type t = Value.pid

  let compare = Value.compare_pid
end)

(* Defined in Intern so the interner can pool whole counter maps. *)
module CounterMap = Intern.CounterMap

type t = {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : int CounterMap.t; (* next sequence number per (pid, site) *)
  error : string option;
}

let make ~procs ~store ~counters ~error = { procs; store; counters; error }

let processes c = List.map snd (PidMap.bindings c.procs)
let find_proc pid c = PidMap.find_opt pid c.procs
let num_procs c = PidMap.cardinal c.procs
let is_error c = Option.is_some c.error

(* Terminal: error, or every process has terminated (the root included).
   A configuration where some process is blocked forever and none can move
   is a *deadlock*, also terminal but distinguished by the explorer. *)
let all_terminated c = PidMap.is_empty c.procs

(* Bump the allocation counter for (pid, site); returns seq and the new
   configuration counters. *)
let next_seq ~pid ~site c =
  let key = (pid, site) in
  let seq = match CounterMap.find_opt key c.counters with Some n -> n | None -> 0 in
  (seq, { c with counters = CounterMap.add key (seq + 1) c.counters })

let update_proc p c = { c with procs = PidMap.add p.Proc.pid p c.procs }
let remove_proc pid c = { c with procs = PidMap.remove pid c.procs }
let add_proc p c = { c with procs = PidMap.add p.Proc.pid p c.procs }
let with_store store c = { c with store }
let with_error msg c = { c with error = Some msg }

(* Canonical representation: the oracle the digest is tested against. *)
type repr = {
  r_procs : Proc.repr list;
  r_store : (Value.loc * Value.t) list;
  r_counters : ((Value.pid * int) * int) list;
  r_error : string option;
}

let repr c =
  {
    r_procs = List.map (fun (_, p) -> Proc.repr p) (PidMap.bindings c.procs);
    r_store = Store.repr c.store;
    r_counters = CounterMap.bindings c.counters;
    r_error = c.error;
  }

(* Hash-consed digest: every component interned to a small id (see
   intern.mli).  Digest equality is equivalent to repr equality, at the
   cost of comparing a handful of ints instead of deep lists. *)
type digest = {
  d_procs : int array; (* interned processes, in pid order *)
  d_store : int;
  d_counters : int;
  d_error : int;
  d_hash : int; (* precomputed full-width hash of the tuple *)
}

(* The one hash formula for digests — [digest] and [digest_of_ids]
   must agree, or checkpointed visited sets stop matching live ones. *)
let digest_of_ids ~d_procs ~d_store ~d_counters ~d_error =
  let d_hash =
    Cobegin_hash.combine
      (Cobegin_hash.hash_int_array d_procs)
      (Cobegin_hash.combine d_store
         (Cobegin_hash.combine d_counters d_error))
  in
  { d_procs; d_store; d_counters; d_error; d_hash }

let digest c =
  let st = Intern.global () in
  let d_procs =
    Array.of_list
      (List.rev
         (PidMap.fold
            (fun _ p acc -> Intern.proc_id st p :: acc)
            c.procs []))
  in
  let d_store = Intern.store_id st c.store in
  let d_counters = Intern.counters_id st c.counters in
  let d_error = Intern.error_id st c.error in
  digest_of_ids ~d_procs ~d_store ~d_counters ~d_error

let digest_equal a b =
  a.d_hash = b.d_hash && a.d_store = b.d_store
  && a.d_counters = b.d_counters && a.d_error = b.d_error
  &&
  let n = Array.length a.d_procs in
  n = Array.length b.d_procs
  &&
  let rec eq i = i >= n || (a.d_procs.(i) = b.d_procs.(i) && eq (i + 1)) in
  eq 0

let digest_hash d = d.d_hash

module Digest_tbl = Hashtbl.Make (struct
  type t = digest

  let equal = digest_equal
  let hash = digest_hash
end)

let equal a b = digest_equal (digest a) (digest b)
let hash c = (digest c).d_hash

let pp ppf c =
  Format.fprintf ppf "@[<v>%a@ store: %a%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Proc.pp)
    (processes c) Store.pp c.store
    (fun ppf -> function
      | None -> ()
      | Some e -> Format.fprintf ppf "@ ERROR: %s" e)
    c.error
