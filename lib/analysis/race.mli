(** Access-anomaly (data-race) detection by co-enabledness: two enabled
    processes whose next-action footprints conflict at a reachable
    configuration are simultaneously poised to touch the same location —
    the anomaly the compile-time debugging literature reports (paper
    sections 1 and 8, [MH89]).  Synchronization operations (lock, unlock,
    await) contend by design and are excluded.

    Exact up to the engine's atomicity: lock-protected accesses never
    become co-enabled; await-ordered accesses do not race. *)

open Cobegin_semantics

type race = {
  stmt1 : int;  (** statement labels, [stmt1 <= stmt2] *)
  stmt2 : int;
  loc : Value.loc;
  write_write : bool;  (** both sides write *)
}

val compare_race : race -> race -> int

val make :
  stmt1:int -> stmt2:int -> loc:Value.loc -> write_write:bool -> race
(** The only constructor: normalizes the pair so [stmt1 <= stmt2],
    collapsing mirrored discoveries. *)

module RaceSet : Set.S with type elt = race

type result = {
  races : RaceSet.t;
  status : Budget.status;
      (** [Truncated _] when the scan covered only a reachable prefix *)
}

val find :
  ?max_configs:int ->
  ?budget:Budget.t ->
  Step.ctx ->
  result
(** Scan every reachable configuration for co-enabled conflicting
    pairs: {!Cobegin_explore.Space.generate} with full expansion and the
    pair scan as its visitor.  The budget ([budget], or [max_configs],
    default 200 000 configurations) counts fired transitions like every
    other engine; at exhaustion the reported races are exactly those of
    the admitted configurations. *)

val explore :
  ?budget:Budget.t ->
  Step.ctx ->
  Cobegin_explore.Space.result * RaceSet.t
(** {!Cobegin_explore.Space.full} with the pair scan of {!find} as its
    visitor: one BFS yields both the exploration result and the race
    set, equal to what {!find} reports under the same budget.  Used by
    the pipeline's sequential full engine so that [--races] costs no
    second pass. *)

val pp_race : Format.formatter -> race -> unit
val pp : Format.formatter -> RaceSet.t -> unit
