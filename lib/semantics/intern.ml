(* Hash-consed interning of configuration components (see intern.mli).

   Layout: one Pool per component kind, keyed by the live component
   itself.  Processes and stores carry their own full-width hash
   (Proc.hash, Store.hash), so a lookup hashes in O(1) and compares
   with the component's [equal], which checks [==] and the hash before
   any field.  No canonical representation is built here. *)

module H = Cobegin_hash
module Metrics = Cobegin_obs.Metrics

(* Telemetry: pool lookups that found an existing id, and lookups that
   added one.  The names predate the pools' keying on live values, when
   they counted a physical-identity memo in front of the pools.  No-ops
   (one branch) while telemetry is disabled. *)
let m_memo_hits = Metrics.counter "intern.memo_hits"
let m_memo_misses = Metrics.counter "intern.memo_misses"
let found () = Metrics.incr m_memo_hits
let added () = Metrics.incr m_memo_misses

module CounterMap = Map.Make (struct
  type t = Value.pid * int (* (pid, site) *)

  let compare (p1, s1) (p2, s2) =
    let c = Value.compare_pid p1 p2 in
    if c <> 0 then c else Int.compare s1 s2
end)

module Proc_pool = H.Pool (Proc)
module Store_pool = H.Pool (Store)

module Counter_pool = H.Pool (struct
  type t = int CounterMap.t

  let equal a b = a == b || CounterMap.equal Int.equal a b

  let hash m =
    CounterMap.fold
      (fun (pid, site) n h ->
        H.combine h (H.combine (Value.hash_pid pid) (H.combine site n)))
      m (H.hash_int 0)
end)

module String_pool = H.Pool (struct
  type t = string

  let equal = String.equal
  let hash = H.hash_string
end)

(* Each pool is mutex-guarded (Cobegin_hash.Pool), which is all the
   domain-safety the interner needs: a lookup is one pool operation. *)
type state = {
  procs : Proc_pool.t;
  stores : Store_pool.t;
  counters : Counter_pool.t;
  errors : String_pool.t;
}

let create () =
  {
    procs = Proc_pool.create ~found ~added 1024;
    stores = Store_pool.create ~found ~added 1024;
    counters = Counter_pool.create ~found ~added 64;
    errors = String_pool.create 16;
  }

(* Eager, not lazy: Lazy.force from several domains at once raises
   [Lazy.Undefined] on the losers, and the parallel engine digests from
   every worker. *)
let the_global = create ()
let global () = the_global
let proc_id st p = Proc_pool.intern st.procs p
let store_id st s = Store_pool.intern st.stores s
let counters_id st m = Counter_pool.intern st.counters m

let error_id st = function
  | None -> -1
  | Some msg -> String_pool.intern st.errors msg

let distinct_procs st = Proc_pool.size st.procs
let distinct_stores st = Store_pool.size st.stores

(* --- snapshot / restore (checkpointing) ---

   A snapshot holds the components behind the ids a checkpoint's
   digests use, each with its saved id — not the whole pools, which
   also hold every other program the process has explored.  Restoring
   re-interns them into a (possibly already populated) interner and
   returns the saved-id → new-id maps, so the saved digests can be
   rebuilt against the restoring process's pools.  The cached hashes
   travel with the marshaled values and stay valid: they are functions
   of the contents, never of addresses. *)

type snapshot = {
  sn_procs : (Proc.t * int) array;
  sn_stores : (Store.t * int) array;
  sn_counters : (int CounterMap.t * int) array;
  sn_errors : (string * int) array;
}

(* The entries whose ids are in [ids], each once. *)
let pick entries ids =
  let need = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace need id ()) ids;
  List.filter (fun (_, id) -> Hashtbl.mem need id) entries |> Array.of_list

let snapshot st ~procs ~stores ~counters ~errors =
  {
    sn_procs = pick (Proc_pool.entries st.procs) procs;
    sn_stores = pick (Store_pool.entries st.stores) stores;
    sn_counters = pick (Counter_pool.entries st.counters) counters;
    sn_errors = pick (String_pool.entries st.errors) errors;
  }

type remap = {
  rm_procs : int array;
  rm_stores : int array;
  rm_counters : int array;
  rm_errors : int array;
}

(* Saved id → new id, [-1] at ids the snapshot does not hold. *)
let remap_of intern entries =
  let size = Array.fold_left (fun n (_, id) -> max n (id + 1)) 0 entries in
  let rm = Array.make size (-1) in
  Array.iter (fun (v, id) -> rm.(id) <- intern v) entries;
  rm

let restore st snap =
  {
    rm_procs = remap_of (proc_id st) snap.sn_procs;
    rm_stores = remap_of (store_id st) snap.sn_stores;
    rm_counters = remap_of (counters_id st) snap.sn_counters;
    rm_errors = remap_of (String_pool.intern st.errors) snap.sn_errors;
  }
