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

let processes c = List.rev (PidMap.fold (fun _ p acc -> p :: acc) c.procs [])
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

(* Interning a configuration probes the pools once per component, in a
   fixed order: the processes in pid order, the store, the counters, the
   error.  With a parent (an admitted configuration and its digest), a
   component of [c] that is physically the parent's is the pooled
   instance already, because admitted configurations are rebuilt from
   the pools.  Its id is therefore the parent's, and it is not probed.
   Of the store only the cells decide ([Store.equal]) and are replaced
   ([Store.adopt_cells]): births, heap, exposure and blocks are not
   compared, so the pooled store's may differ. *)
let intern st ?parent c =
  let d_procs = Array.make (PidMap.cardinal c.procs) 0 in
  let i = ref 0 in
  let probe p =
    let pooled, id = Intern.proc st p in
    d_procs.(!i) <- id;
    incr i;
    pooled
  in
  let procs =
    match parent with
    | None ->
        (* [PidMap.map] applies its function in increasing key order *)
        PidMap.map probe c.procs
    | Some (pc, pd) ->
        (* Walk the parent's bindings alongside [c]'s, both in pid order.
           Only a probed process that is not its own pooled instance is
           swapped into [c]'s map. *)
        let parent = Array.of_list (PidMap.bindings pc.procs) in
        let j = ref 0 in
        PidMap.fold
          (fun pid p procs ->
            while
              !j < Array.length parent
              && Value.compare_pid (fst parent.(!j)) pid < 0
            do
              incr j
            done;
            if !j < Array.length parent && snd parent.(!j) == p then begin
              d_procs.(!i) <- pd.d_procs.(!j);
              incr i;
              procs
            end
            else
              let pooled = probe p in
              if pooled == p then procs else PidMap.add pid pooled procs)
          c.procs c.procs
  in
  let store, d_store =
    match parent with
    | Some (pc, pd) when Store.same_cells c.store pc.store ->
        (c.store, pd.d_store)
    | _ ->
        let pooled, id = Intern.store st c.store in
        (Store.adopt_cells ~pooled c.store, id)
  in
  let counters, d_counters =
    match parent with
    | Some (pc, pd) when c.counters == pc.counters ->
        (c.counters, pd.d_counters)
    | _ -> Intern.counters st c.counters
  in
  let d_error =
    match parent with
    | Some (pc, pd) when c.error == pc.error -> pd.d_error
    | _ -> Intern.error_id st c.error
  in
  ( { procs; store; counters; error = c.error },
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
