(* Hash-consed interning of configuration components (see intern.mli).

   Layout: one Pool per component kind, keyed by the live component
   itself.  Processes, stores and counter maps carry their own
   full-width hash (Proc.hash, Store.hash, Counters.hash), so a lookup
   hashes in O(1) and compares with the component's [equal], which
   checks [==] and the hash before any field.  No canonical
   representation is built here. *)

module H = Cobegin_hash
module Metrics = Cobegin_obs.Metrics

(* Telemetry: pool lookups that found an existing id, and lookups that
   added one.  The names predate the pools' keying on live values, when
   they counted a physical-identity memo in front of the pools.  No-ops
   (one branch) while telemetry is disabled. *)
let m_memo_hits = Metrics.counter "intern.memo_hits"
let m_memo_misses = Metrics.counter "intern.memo_misses"

module Counted = struct
  let found () = Metrics.incr m_memo_hits
  let added () = Metrics.incr m_memo_misses
end

module Proc_pool = H.Pool (struct
  include Counted

  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

module Store_pool = H.Pool (struct
  include Counted

  type t = Store.t

  let equal = Store.equal
  let hash = Store.hash
end)

module Counter_pool = H.Pool (struct
  include Counted

  type t = Counters.t

  let equal = Counters.equal
  let hash = Counters.hash
end)

module String_pool = H.Pool (struct
  type t = string

  let equal = String.equal
  let hash = H.hash_string
  let found = ignore
  let added = ignore
end)

type state = {
  procs : Proc_pool.t;
  stores : Store_pool.t;
  counters : Counter_pool.t;
  errors : String_pool.t;
}

let create ?shared () =
  {
    procs = Proc_pool.create ?shared 1024;
    stores = Store_pool.create ?shared 1024;
    counters = Counter_pool.create ?shared 64;
    errors = String_pool.create ?shared 16;
  }

(* Eager, not lazy: Lazy.force from several domains at once raises
   [Lazy.Undefined] on the losers. *)
let the_global = create ~shared:true ()
let global () = the_global
let proc st p = Proc_pool.intern st.procs p
let store st s = Store_pool.intern st.stores s
let counters st c = Counter_pool.intern st.counters c

let error_id st = function
  | None -> -1
  | Some msg -> snd (String_pool.intern st.errors msg)

let distinct_procs st = Proc_pool.size st.procs
let distinct_stores st = Store_pool.size st.stores

let sizes st =
  [ ("procs", distinct_procs st); ("stores", distinct_stores st) ]
