(** Hash-consed interning of configuration components.

    This layer interns each component of a configuration — a process, a
    store, the allocation-counter map, the error marker — into a small
    integer id, so a whole configuration collapses to a flat int tuple
    ({!Config.digest}) whose equality and hashing are O(#procs).  Each
    lookup also returns the pooled instance, which {!Config.intern}
    substitutes into the configuration it admits.

    The pools key on the live values.  Processes, stores and counter
    maps carry a full-width hash that is cached ({!Proc.hash}) or
    maintained on every write ({!Store.hash}, {!Counters.hash}), so a
    lookup hashes in O(1) and then compares with the component's
    [equal], which short-cuts on [==] and on a hash mismatch.

    {b One interner per exploration.}  {!Proc.equal} identifies
    statements by label, so a pooled process may stand in for a live one
    only within one program, where labels are unique.  Every engine
    creates its own interner; ids from distinct interners are not
    comparable.

    Invariants:
    - id equality is equivalent to structural equality of the canonical
      representation ([snd (proc st a) = snd (proc st b)] iff
      [Proc.repr a = Proc.repr b], and likewise for the other pools);
      [test_intern] checks this against {!Config.repr};
    - ids are never reused, so digests remain valid for the lifetime of
      the interner that produced them.

    An unshared interner is plain data: {!Cobegin_explore.Checkpoint}
    marshals it with the rest of the kernel state, ids and all.

    Telemetry: the counter [intern.memo_hits] counts process, store and
    counter-map lookups that found an existing id, [intern.memo_misses]
    lookups that added one.  {!Config.intern} from a parent looks up
    only the components the action changed, so they count only those. *)

type state
(** An interner: one pool per component kind. *)

val create : ?shared:bool -> unit -> state
(** [shared] (default [false]) guards every pool with a mutex, so the
    interner may be used from several OCaml 5 domains at once
    ({!Cobegin_explore.Parallel}); ids stay sequential and stable
    whatever the schedule.  A shared interner does not marshal. *)

val global : unit -> state
(** A process-wide interner that no engine uses: it stays only for
    callers outside the library that read {!distinct_stores} from it. *)

val proc : state -> Proc.t -> Proc.t * int
val store : state -> Store.t -> Store.t * int
val counters : state -> Counters.t -> Counters.t * int
(** The pooled instance equal to the argument (the argument itself when
    it is new) and its id. *)

val error_id : state -> string option -> int
(** [-1] for [None]; interned string ids (≥ 0) for [Some _]. *)

val distinct_procs : state -> int
val distinct_stores : state -> int

val sizes : state -> (string * int) list
(** [("procs", distinct_procs st); ("stores", distinct_stores st)]: what
    progress samples report. *)
