(** Hash-consed interning of configuration components.

    This layer interns each component of a configuration — a process, a
    store, the allocation-counter map, the error marker — into a small
    integer id, so a whole configuration collapses to a flat int tuple
    ({!Config.digest}) whose equality and hashing are O(#procs).

    The pools key on the live values.  Processes and stores carry a
    full-width hash that is cached ({!Proc.hash}) or maintained on every
    write ({!Store.hash}), so a lookup hashes in O(1) and then compares
    with {!Proc.equal} / {!Store.equal}, which short-cut on [==] and on
    a hash mismatch.  No canonical representation is built and, on a
    hash miss, no process or store is walked.

    Invariants:
    - id equality is equivalent to structural equality of the canonical
      representation ([proc_id a = proc_id b] iff
      [Proc.repr a = Proc.repr b], and likewise for the other pools);
      [test_intern] checks this against {!Config.repr};
    - ids are never reused, so digests remain valid for the lifetime of
      the interner that produced them.

    Telemetry: the counter [intern.memo_hits] counts lookups that found
    an existing id, [intern.memo_misses] lookups that added one.

    Domain-safety: every pool is guarded by its own mutex, so one
    interner — in particular {!global}, which is created eagerly at
    module initialization — may be shared by any number of OCaml 5
    domains.  Ids stay sequential and stable no matter how many domains
    intern concurrently; the parallel exploration engine relies on
    this. *)

module CounterMap : Map.S with type key = Value.pid * int
(** The allocation-counter map, keyed by (pid, site).  Defined here (and
    re-exported by {!Config}) so the interner can pool whole counter
    maps. *)

type state
(** An interner: one pool per component kind. *)

val create : unit -> state

val global : unit -> state
(** The process-wide default interner used by {!Config.digest}.  Ids
    from distinct [state]s are not comparable; stick to one. *)

val proc_id : state -> Proc.t -> int
val store_id : state -> Store.t -> int
val counters_id : state -> int CounterMap.t -> int
val error_id : state -> string option -> int
(** [-1] for [None]; interned string ids (≥ 0) for [Some _]. *)

val distinct_procs : state -> int
val distinct_stores : state -> int
(** Pool sizes, for instrumentation and the E14 bench. *)

(** {2 Snapshot / restore}

    Checkpointing support ({!Cobegin_explore.Checkpoint}): a snapshot
    holds the values behind the ids a set of digests uses, so those
    digests, serialized to disk, can be rebuilt in another process. *)

type snapshot
(** Live processes, stores, counter maps and error strings, each with
    its id.  Pure data ([Marshal]-safe; the cached hashes inside stay
    valid across processes). *)

val snapshot :
  state ->
  procs:int list ->
  stores:int list ->
  counters:int list ->
  errors:int list ->
  snapshot
(** The entries of [st] with the given ids (duplicates allowed).  Its
    size follows the ids asked for, not the pools, which keep every
    component the process has ever interned. *)

type remap = {
  rm_procs : int array;  (** saved proc id → id in the restored pools *)
  rm_stores : int array;
  rm_counters : int array;
  rm_errors : int array;
}

val restore : state -> snapshot -> remap
(** Re-intern every snapshotted component into [st] (idempotent for
    components already present) and return the saved-id → new-id maps,
    defined at every saved id the snapshot holds.  The saved error id
    [-1] ([None]) is not in the map — it stays [-1]. *)
