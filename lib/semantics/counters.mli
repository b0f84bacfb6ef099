(** The allocation counters of a configuration: the next sequence
    number per (pid, site), from which {!Step} builds the deterministic
    location of each allocation.

    A counter map carries the wrapping sum of its entries' hashes, kept
    up to date by {!next} in O(1) like {!Store.hash} and {!Env.hash}, so
    {!Intern} pools counter maps without walking them. *)

type t

val empty : t

val next : pid:Value.pid -> site:int -> t -> int * t
(** The sequence number for (pid, site), and the map with it bumped. *)

val hash : t -> int
val equal : t -> t -> bool
(** Same entries; compares {!hash} first. *)

val bindings : t -> ((Value.pid * int) * int) list
(** Sorted by (pid, site): the canonical representation. *)
