(** Configurations — the global states of the interleaving semantics
    (paper section 2): live processes, shared store, allocation counters
    and an optional error marker.  Exploration folds states reached by
    different interleavings by their hash-consed {!digest}; {!repr} is
    the canonical representation it is checked against. *)

module PidMap : Map.S with type key = Value.pid

type t = {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : Counters.t;  (** next sequence number per (pid, site) *)
  error : string option;  (** a runtime failure: the configuration is terminal *)
}

val make :
  procs:Proc.t PidMap.t ->
  store:Store.t ->
  counters:Counters.t ->
  error:string option ->
  t

val processes : t -> Proc.t list
(** Live processes, in pid order. *)

val find_proc : Value.pid -> t -> Proc.t option
val num_procs : t -> int
val is_error : t -> bool

val all_terminated : t -> bool
(** Every process has run to completion: a final configuration. *)

val next_seq : pid:Value.pid -> site:int -> t -> int * t
(** Allocate the next sequence number for (pid, site). *)

val update_proc : Proc.t -> t -> t
val remove_proc : Value.pid -> t -> t
val with_store : Store.t -> t -> t
val with_error : string -> t -> t

type repr
(** Canonical representation: pure data with structural equality.  Not
    on the exploration path; it is the independent oracle the digest is
    tested against. *)

val repr : t -> repr

type digest = {
  d_procs : int array;  (** interned process ids, in pid order *)
  d_store : int;  (** interned store id *)
  d_counters : int;  (** interned counter-map id *)
  d_error : int;  (** -1, or the interned error string id *)
  d_hash : int;  (** precomputed full-width hash of the tuple *)
}
(** Hash-consed identity (see {!Intern}): a flat int tuple such that,
    under one interner, two configurations' digests are equal iff their
    {!repr}s are.  The pools key on the live components, which carry
    their own cached or maintained hash ({!Proc.hash}, {!Store.hash},
    {!Counters.hash}), so no canonical form is built and no component
    is walked unless a lookup must compare two equal-hashing values. *)

val intern : Intern.state -> ?parent:t * digest -> t -> t * digest
(** [intern st c] is [c] rebuilt from the components pooled in [st],
    and its digest.  Each process and the counter map are replaced by
    their pooled instances; the store keeps its own metadata and takes
    the pooled store's cell map ({!Store.adopt_cells}).

    [parent] is a configuration this function returned under [st], with
    its digest, of which [c] is a successor.  A process, cell map,
    counter map or error of [c] that is physically the parent's is not
    looked up: it is the pooled instance, and its id is the parent's.
    Only the other components are looked up, and only the processes
    among them that are not their own pooled instance are swapped into
    [c]'s process map.  The result and the digest are those of the call
    without [parent], and the pools are left in the same state.  Only
    initial configurations are interned without one.

    Cost: a lookup per changed component (one hash for a process built
    since its last lookup, a comparison on a hit that is not physically
    the pooled value), and O(#procs) to walk the parent's processes and
    assemble the tuple. *)

val digest_equal : digest -> digest -> bool
val digest_hash : digest -> int

module Digest_tbl : Hashtbl.S with type key = digest
(** The specialized visited-set table every state-folding client keys
    by: hashing reads the precomputed [d_hash], equality compares a
    handful of ints. *)

val pp : Format.formatter -> t -> unit
