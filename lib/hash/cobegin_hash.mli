(** Full-width structural hashing and hash-consing primitives.

    OCaml's generic [Hashtbl.hash] inspects at most ~10 meaningful nodes
    of its argument, so deep values (processes, stores, Petri markings,
    abstract-machine keys) degenerate into collision chains on anything
    bigger than a toy program.  This module provides explicit full-width
    folds — every node of the value contributes to the hash — from which
    processes and stores build the hashes they cache, plus the building
    block of the interning layer: sequential-id {!Pool}s keyed by
    structural equality. *)

val combine : int -> int -> int
(** [combine h k] mixes [k] into the running hash [h] (boost-style,
    full native-int width, always non-negative). *)

val hash_int : int -> int
(** Mix a single integer through {!combine} (avalanches nearby ints). *)

val hash_bool : bool -> int

val hash_string : string -> int
(** Folds over {e every} byte of the string. *)

val hash_list : ('a -> int) -> 'a list -> int
(** Folds over every element; the length is mixed in, so a prefix never
    hashes like the whole. *)

val hash_option : ('a -> int) -> 'a option -> int

val hash_int_array : int array -> int
(** Full fold over the array — the replacement for
    [Hashtbl.hash (Array.to_list m)] truncated at ~10 elements. *)

(** Hash-consing pool: assigns small sequential ids to structurally
    distinct keys.  Two keys receive the same id iff they are equal per
    [H.equal]; ids are never reused, so id equality is a sound and
    complete proxy for structural equality of the interned values.

    Lookup is mutex-guarded, so a pool may be shared across OCaml 5
    domains: ids stay sequential and stable no matter how many domains
    intern concurrently. *)
module Pool (H : Hashtbl.HashedType) : sig
  type t

  val create : ?found:(unit -> unit) -> ?added:(unit -> unit) -> int -> t
  (** [found] runs on each {!intern} that finds its key already in the
      pool, [added] on each that adds it — under the pool mutex, so
      they must not re-enter the pool.  Both default to doing nothing;
      {!Intern} counts lookups with them. *)

  val intern : t -> H.t -> int
  val size : t -> int
  (** Number of distinct keys interned so far (= the next fresh id). *)

  val entries : t -> (H.t * int) list
  (** Every (key, id) pair interned so far, in no particular order,
      read atomically under the pool mutex — the ids always form the
      contiguous range [0..size-1].  For snapshot/restore
      ({!Intern}). *)
end
