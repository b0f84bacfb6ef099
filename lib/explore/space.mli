(** State-space generation (paper section 2).

    Breadth-first construction of the configuration graph of a program:
    the concrete instance of the exploration kernel ({!Kernel.Make},
    which documents the kernel's parameters, its visitor contract and
    the remainder of a cut expansion).  [full] fires every enabled
    action at every configuration; {!Stubborn}, {!Sleep},
    {!Checkpoint}, [Race] and {!Trace} are other calls to {!generate}.
    A run accumulates configuration and transition counts, the terminal
    configurations (final, deadlocked, erroneous) and the distinct
    events of the transitions fired (see {!Step.log}), the input of the
    analyses of Cobegin_analysis. *)

open Cobegin_semantics

type stats = Kernel.stats = {
  configurations : int;  (** distinct configurations visited *)
  transitions : int;  (** transitions fired *)
  max_frontier : int;  (** peak size of the BFS queue *)
  finals : int;  (** configurations with every process terminated *)
  deadlocks : int;  (** non-final configurations with nothing enabled *)
  errors : int;  (** error configurations (runtime failures) *)
}

(** Configurations kept from the run's interner ({!Config.intern}),
    keyed by their digests; actions are {!Step.action}s; the log keeps
    the distinct events fired.  [classify] records an error, a final
    (all processes terminated) or a deadlock (nothing enabled), and
    otherwise returns {!Step.enabled_actions}.  A revisit merges
    nothing. *)
module Instance :
  Kernel.SPACE
    with type ctx = Step.ctx
     and type config = Config.t
     and type action = Step.action
     and type key = Config.digest
     and module Tbl = Config.Digest_tbl
     and type pools = Intern.state
     and type events = Step.events
     and type log = Step.log

include module type of Kernel.Make (Instance)

val full : ?max_configs:int -> ?budget:Budget.t -> Step.ctx -> result
(** Ordinary (full interleaving) generation.  When [budget] is given it
    governs the run ([max_configs] is then ignored); otherwise
    [max_configs] (default one million) bounds the visited set.  Never
    raises on exhaustion: the partial result comes back with [status =
    Truncated _], and the admitted-but-unexpanded frontier is still
    classified. *)

val final_store_reprs : result -> (Value.loc * Value.t) list list
(** Canonical list of the distinct final stores — the
    "result-configurations" used to compare strategies.  Sorted and
    deduplicated by {!Store.repr}, so two runs' lists compare equal
    whichever engines (and interners) produced them. *)

val pp_stats : Format.formatter -> stats -> unit
