(** The shared store: locations to values, plus instrumentation metadata
    (birthdates, heap/exposure flags, malloc block sizes).  Metadata is
    excluded from equality — it is functionally determined by the logical
    state, and keeping it out lets interleavings that reach the same
    state fold during exploration. *)

type t

val empty : t
val find : Value.loc -> t -> Value.t option
val mem : Value.loc -> t -> bool
val set : Value.loc -> Value.t -> t -> t

val alloc :
  ?heap:bool -> ?exposed:bool -> birth:Pstring.t -> Value.loc -> Value.t -> t -> t
(** Create a cell.  [heap] marks malloc cells; [exposed] marks
    address-taken variables; [birth] is the creating procedure string. *)

val free : Value.LocSet.t -> t -> t
(** Remove the cells; later accesses are runtime errors. *)

val birth : Value.loc -> t -> Pstring.t option
val is_heap : Value.loc -> t -> bool

val is_mem_covered : Value.loc -> t -> bool
(** Reachable through a pointer: a heap cell or an address-taken
    variable.  The memory token of the may-access summaries concretizes
    to exactly these. *)

val register_block : Value.loc -> int -> t -> t
(** Record a malloc block's size under its base location. *)

val block_cells : Value.loc -> t -> Value.LocSet.t option
(** All cells of the block [loc] points into; [None] if [loc] is not a
    registered block. *)

val repr : t -> (Value.loc * Value.t) list
(** Canonical representation (cells only, sorted): the oracle
    {!Config.repr} compares identity against. *)

val hash : t -> int
(** Full-width hash of the cells, kept up to date by {!set}, {!alloc}
    and {!free} in O(1) per cell: a store hashes like any other store
    holding the same cells, however it was built.  The metadata stays
    out, as it stays out of {!equal}.  {!Intern} keys its store pool on
    it. *)

val equal : t -> t -> bool
(** Same cells (locations and values); compares {!hash} first, then
    the cell maps' physical identity. *)

val same_cells : t -> t -> bool
(** The two stores hold physically the same cell map, so they are
    {!equal}. *)

val adopt_cells : pooled:t -> t -> t
(** [adopt_cells ~pooled st] is [st] holding [pooled]'s cell map, which
    must be equal to its own ([equal pooled st]); the metadata stays
    [st]'s.  {!Config.intern} uses it to share one cell map among the
    stores of a pool. *)

val bindings : t -> (Value.loc * Value.t) list
val pp : Format.formatter -> t -> unit
