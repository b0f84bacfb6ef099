(** Eraser-style must-hold lockset analysis over [lock]/[unlock], and
    the static race report built on it: every MHP pair of
    conflicting, non-synchronization sites whose own-process locksets
    (relative to the generating fork) share no eligible lock.

    Lock identity is by name, meaningful only for {e stable} locks:
    declared exactly once, in the (never-called) entry procedure, never
    a parameter, never address-taken.  A lock is {e eligible} for race
    suppression when it is stable and every [unlock] of it anywhere is
    performed by a process that itself holds it; anything weaker could
    void mutual exclusion, so weaker locks never suppress.  The result
    over-approximates the dynamic detector: every race found by
    [Race.find] shows up here (the cross-validation suite asserts
    this), the converse does not hold. *)

open Cobegin_lang
module SS = Ast.StringSet

type t
(** The static base of one analysis: the lockset facts together with the
    {!Mhp.t} they were computed from.  It memoizes its lock-suppressed
    race list, so it belongs to one analysis and one domain. *)

val of_program : Ast.program -> t
(** Builds the {!Mhp.t} of the program and the locksets over it. *)

val mhp : t -> Mhp.t
val stable : t -> SS.t
val eligible : t -> SS.t

val must_held : t -> int -> SS.t
(** Locks definitely held on entry to the action at this label
    (including locks inherited from the spawning process). *)

val may_held : t -> int -> SS.t
(** Locks possibly held — the basis of the [Deadlock] lock-order
    graph. *)

val local_must_held : t -> int -> SS.t
(** The subset of [must_held] acquired by the executing process itself
    since its own fork. *)

val protection : t -> Mhp.context -> Mhp.site -> SS.t
(** The eligible locks the site's process holds, acquired since the
    context's fork.  Locks held at the fork are held by every branch at
    once, so they give no mutual exclusion between the branches. *)

(** {1 Static races} *)

type race = {
  r_stmt1 : int;  (** always [<= r_stmt2] *)
  r_stmt2 : int;
  r_ww : bool;  (** write/write (vs read/write) *)
  r_what : string;  (** variable name, or ["memory"] for the token *)
}

val compare_race : race -> race -> int

val races : ?locks:bool -> t -> race list
(** Conflicting pairs of non-synchronization sites that some context
    places in distinct branches, unless both sites' {!protection}s share
    a lock; [~locks:false] skips that suppression.  Canonically ordered,
    duplicate-free.  The suppressed list (the default) is enumerated at
    most once per [t]. *)

val race_pairs : race list -> (int * int) list
(** The distinct [(stmt1, stmt2)] pairs of a race list, ascending. *)

val pp_race : Format.formatter -> race -> unit
