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

(** What a {!Pool} keys on: a hashed type plus the two hooks the pool
    runs on each lookup. *)
module type POOLED = sig
  include Hashtbl.HashedType

  val found : unit -> unit
  (** Run on each {!Pool.intern} that finds its key already pooled. *)

  val added : unit -> unit
  (** Run on each {!Pool.intern} that adds its key. *)
end

(** Hash-consing pool: assigns small sequential ids to structurally
    distinct keys and keeps the first instance of each.  Two keys
    receive the same id iff they are equal per [H.equal]; ids are never
    reused, so id equality is a sound and complete proxy for structural
    equality of the interned values.

    A pool is plain data (no closures, no lock unless [shared]), so an
    unshared pool survives [Marshal] with its ids: the hashes it keys on
    must then be functions of the contents, never of addresses.  A
    [shared] pool guards each lookup with a mutex and may be used from
    several OCaml 5 domains at once; ids stay sequential and stable no
    matter how many domains intern concurrently. *)
module Pool (H : POOLED) : sig
  type t

  val create : ?shared:bool -> int -> t
  (** [shared] (default [false]) adds the mutex.  The hooks of [H] run
      under it, so they must not re-enter the pool. *)

  val intern : t -> H.t -> H.t * int
  (** The pooled instance equal to the key — the key itself when it is
      new — and its id.  The pair is the one the pool stores, so a hit
      allocates nothing. *)

  val size : t -> int
  (** Number of distinct keys interned so far (= the next fresh id). *)
end
