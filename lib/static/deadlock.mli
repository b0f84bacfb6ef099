(** Lock-order graph: an edge a -> b for every acquire site of stable
    lock b where stable lock a may already be held.  Strongly connected
    components with two or more locks whose acquire sites may happen in
    parallel are reported as potential deadlocks.  An acyclic graph
    cannot deadlock on stable locks; a reported cycle is a may-result. *)

type cycle = {
  locks : string list;  (** the locks of the SCC, sorted *)
  sites : int list;  (** acquire sites of the SCC's edges, sorted *)
}

val compare_cycle : cycle -> cycle -> int

val find : Lockset.t -> cycle list
(** Canonically ordered by lock set. *)

val pp_cycle : Format.formatter -> cycle -> unit
