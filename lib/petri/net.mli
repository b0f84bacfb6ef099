(** Place/transition nets with weighted arcs — the substrate on which
    stubborn-set theory was developed ([Val88]-[Val90]); the paper's
    dining-philosophers scaling claim is formulated on such nets. *)

type place = int

type transition = {
  tid : int;
  tname : string;
  pre : (place * int) list;  (** input places with arc weights *)
  post : (place * int) list;  (** output places with arc weights *)
}

type t = {
  nplaces : int;
  place_names : string array;
  transitions : transition array;
  initial : int array;
}

type marking = int array

(** Imperative builder; freeze with {!Builder.build}. *)
module Builder : sig
  type state

  val create : unit -> state

  val add_place : state -> string -> int -> place
  (** [add_place b name tokens] returns the new place's id. *)

  val add_transition :
    state -> string -> pre:(place * int) list -> post:(place * int) list -> int
  (** @raise Invalid_argument on undefined places or non-positive
      weights. *)

  val build : state -> t
end

val initial_marking : t -> marking
val num_transitions : t -> int
val transition : t -> int -> transition
val enabled : marking -> transition -> bool
val enabled_transitions : t -> marking -> transition list

val fire : marking -> transition -> marking
(** @raise Invalid_argument when the transition is not enabled. *)

(** Structural indices used by the stubborn-set closure. *)
type indices = {
  consumers : int list array;  (** place -> transitions consuming from it *)
  producers : int list array;  (** place -> transitions producing into it *)
}

val build_indices : t -> indices
val pp_marking : t -> Format.formatter -> marking -> unit
