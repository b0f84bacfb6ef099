(** Environments: variable names to locations.  Blocks save and restore
    environments at entry/exit (lexical scoping); cobegin branches
    inherit the spawning environment — which is how concurrent threads
    come to share variables. *)

type t

val empty : t
val find : string -> t -> Value.loc option
val bind : string -> Value.loc -> t -> t
val bindings : t -> (string * Value.loc) list

val hash : t -> int
(** Full-width hash of the bindings, maintained by {!bind} in O(1):
    [equal a b] implies [hash a = hash b]. *)

val equal : t -> t -> bool

val locations : t -> Value.LocSet.t
(** The locations named by the environment's bindings. *)

val pp : Format.formatter -> t -> unit
