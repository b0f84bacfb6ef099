(** Configurations — the global states of the interleaving semantics
    (paper section 2): live processes, shared store, allocation counters
    and an optional error marker.  Equality and hashing go through the
    hash-consed {!digest}, so that exploration folds states reached by
    different interleavings; {!repr} is the canonical representation it
    is checked against. *)

module PidMap : Map.S with type key = Value.pid
module CounterMap : Map.S with type key = Value.pid * int

type t = {
  procs : Proc.t PidMap.t;
  store : Store.t;
  counters : int CounterMap.t;  (** next sequence number per (pid, site) *)
  error : string option;  (** a runtime failure: the configuration is terminal *)
}

val make :
  procs:Proc.t PidMap.t ->
  store:Store.t ->
  counters:int CounterMap.t ->
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
val add_proc : Proc.t -> t -> t
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
(** Hash-consed identity (see {!Intern}): a flat int tuple such that
    [digest_equal (digest a) (digest b)] iff [repr a = repr b].  The
    pools key on the live components: processes and stores carry their
    own cached hash ({!Proc.hash}, {!Store.hash}), so no canonical form
    is built and no process or store is walked unless a lookup must
    compare two equal-hashing values. *)

val digest : t -> digest
(** Intern against the process-wide default interner
    ({!Intern.global}).  Cost: one hash for each process built since its
    last digest, a comparison per pool hit that is not physically the
    pooled value, a walk of the counter map, and O(#procs) to assemble
    the tuple. *)

val digest_of_ids :
  d_procs:int array -> d_store:int -> d_counters:int -> d_error:int -> digest
(** Rebuild a digest from component ids (recomputing [d_hash] with the
    same formula {!digest} uses).  For checkpoint restore, where saved
    ids are mapped through an {!Intern.remap} before reuse.  The ids
    must come from the interner the digest will be compared under. *)

val digest_equal : digest -> digest -> bool
val digest_hash : digest -> int

module Digest_tbl : Hashtbl.S with type key = digest
(** The specialized visited-set table every state-folding client keys
    by: hashing reads the precomputed [d_hash], equality compares a
    handful of ints. *)

val equal : t -> t -> bool
val hash : t -> int
(** Both go through {!digest}. *)

val pp : Format.formatter -> t -> unit
