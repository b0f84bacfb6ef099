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

type t = {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : Counters.t; (* next sequence number per (pid, site) *)
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
  let seq, counters = Counters.next ~pid ~site c.counters in
  (seq, { c with counters })

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
    r_counters = Counters.bindings c.counters;
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

(* One pass over the processes, in pid order ([PidMap.map] applies its
   function in increasing key order): intern each, record its id, and
   keep the pooled instance.  Of the store only the cells are replaced
   (Store.adopt_cells): births, heap, exposure and blocks are not
   compared by Store.equal, so the pooled store's may differ. *)
let intern st c =
  let d_procs = Array.make (PidMap.cardinal c.procs) 0 in
  let i = ref 0 in
  let procs =
    PidMap.map
      (fun p ->
        let pooled, id = Intern.proc st p in
        d_procs.(!i) <- id;
        incr i;
        pooled)
      c.procs
  in
  let pooled_store, d_store = Intern.store st c.store in
  let counters, d_counters = Intern.counters st c.counters in
  let d_error = Intern.error_id st c.error in
  ( {
      procs;
      store = Store.adopt_cells ~pooled:pooled_store c.store;
      counters;
      error = c.error;
    },
    {
      d_procs;
      d_store;
      d_counters;
      d_error;
      d_hash =
        Cobegin_hash.combine
          (Cobegin_hash.hash_int_array d_procs)
          (Cobegin_hash.combine d_store
             (Cobegin_hash.combine d_counters d_error));
    } )

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

let pp ppf c =
  Format.fprintf ppf "@[<v>%a@ store: %a%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Proc.pp)
    (processes c) Store.pp c.store
    (fun ppf -> function
      | None -> ()
      | Some e -> Format.fprintf ppf "@ ERROR: %s" e)
    c.error
