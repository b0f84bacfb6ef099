(** Concrete values, process identifiers and locations.

    Pids are {e fork paths}: the root process is [[]]; the k-th branch of
    the cobegin labelled l spawned by p is [p @ [(l, k)]] — canonical
    across interleavings.  Locations are (creating pid, creation site,
    per-(pid,site) sequence number, cell offset), making allocation
    deterministic: the same logical allocation always receives the same
    location, so configurations reached by different interleavings
    compare equal and fold during exploration. *)

type pid = (int * int) list

val root_pid : pid
val child_pid : pid -> cob:int -> idx:int -> pid
val compare_pid : pid -> pid -> int

val hash_pid : pid -> int
(** Full-width ({!Cobegin_hash}), like [hash_loc] and [hash]: equal
    arguments hash alike.  The cached hashes of {!Env}, {!Store} and
    {!Proc} are built from these. *)

val pp_pid : Format.formatter -> pid -> unit

type loc = {
  l_pid : pid;  (** process that created the location *)
  l_site : int;  (** label of the creating decl/malloc/call statement *)
  l_seq : int;  (** per-(pid, site) sequence number *)
  l_off : int;  (** cell offset inside a malloc block *)
}

val compare_loc : loc -> loc -> int
val hash_loc : loc -> int
val pp_loc : Format.formatter -> loc -> unit

module LocSet : Set.S with type elt = loc
module LocMap : Map.S with type key = loc

type t =
  | Vint of int
  | Vbool of bool
  | Vloc of loc  (** pointer *)
  | Vfun of string  (** first-class procedure value *)

val compare_value : t -> t -> int
val equal_value : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val type_name : t -> string
(** For error messages: "int", "bool", "pointer", "procedure". *)
