(** The small-step interleaving semantics (paper sections 2 and 4).

    One transition is one atomic action of one process: a simple
    statement, a branch test, a call/return movement, a cobegin spawn, a
    join, or a whole [atomic] block.  Expressions are pure and evaluated
    within the action containing them.  Every transition is instrumented
    with the accesses and allocations it performs — the input of the
    section-5 analyses.

    Under {!Tso}/{!Pso} (operational store buffers, Boudol–Petri style)
    plain assignments are buffered per process and published by separate
    nondeterministic {e flush} transitions; a process's own reads forward
    from its buffer.  [fence]/[atomic]/[lock]/[unlock] fire only on an
    empty buffer.  Under {!Sc} the {!action} interface degenerates to
    exactly one {!Arun} per enabled process — SC exploration is
    unchanged by the buffer machinery. *)

open Cobegin_lang

(** The memory model of the concrete semantics.  [Sc] is the paper's
    interleaving semantics; [Tso] adds per-process FIFO store buffers
    (total store order: only the oldest write may flush); [Pso] lets the
    oldest write {e per location} flush, so stores to distinct locations
    reorder. *)
type model = Sc | Tso | Pso

val model_of_string : string -> model option
(** ["sc"], ["tso"], ["pso"]. *)

val model_name : model -> string

type ctx = {
  prog : Ast.program;
  addr_taken : Ast.StringSet.t;  (** names whose address is taken *)
  model : model;
}

val make_ctx : ?model:model -> Ast.program -> ctx
(** [model] defaults to {!Sc}. *)

(** {1 Instrumentation} *)

type access = {
  a_label : int;  (** statement performing the access; -1 = implicit *)
  a_loc : Value.loc;
  a_kind : [ `Read | `Write ];
  a_pstr : Pstring.t;  (** procedure string at the access *)
  a_pid : Value.pid;
}

type alloc = {
  al_loc : Value.loc;
  al_site : int;
  al_birth : Pstring.t;  (** the object's birthdate *)
  al_heap : bool;
}

type events = { accesses : access list; allocs : alloc list }

val no_events : events
val merge_events : events -> events -> events

(** The distinct events of an exploration.  Every configuration that
    reaches an access repeats it; the analyses of section 5 read only
    which events occur, so a log keeps each access and each allocation
    once.  Plain data: a log marshals. *)
type log

val new_log : unit -> log

val record : log -> events -> unit
(** Add the events one transition performed. *)

val absorb : into:log -> log -> unit
(** Add every event of the second log to [into]. *)

val logged : log -> events
(** The distinct events, in no particular order. *)

(** {1 Evaluation} *)

exception Runtime_error of string

val eval :
  ctx -> Env.t -> Store.t -> Value.LocSet.t ref -> Ast.expr -> Value.t
(** Evaluate an expression, accumulating the locations read.
    @raise Runtime_error on type errors, dangling pointers, division by
    zero, etc. *)

val eval_bool : ctx -> Env.t -> Store.t -> Value.LocSet.t ref -> Ast.expr -> bool

val resolve_lvalue :
  ctx -> Env.t -> Store.t -> Value.LocSet.t ref -> Ast.lvalue -> Value.loc

(** {1 Configurations} *)

val normalize : Config.t -> Config.t
(** Unfold administrative items (blocks, environment pops) and drop
    terminated processes; all configurations handled by [fire] and
    returned by it are normalized. *)

val init : ctx -> Config.t
(** Initial configuration: one root process at the entry procedure. *)

val enabled_proc : ctx -> Config.t -> Proc.t -> bool
(** Disabled: an [await]/[lock] whose condition is false, a join with
    live children, a sync action ([fence]/[atomic]/[lock]/[unlock]) with
    a non-empty store buffer, or an empty stack (only flushes remain).
    Failing evaluations count as enabled — firing them yields the error
    configuration. *)

val enabled_processes : ctx -> Config.t -> Proc.t list

(** {1 Footprints (dry runs)} *)

type footprint = { freads : Value.LocSet.t; fwrites : Value.LocSet.t }

val empty_footprint : footprint

val footprint_conflict : footprint -> footprint -> bool
(** Write/read or write/write overlap. *)

val action_footprint : ctx -> Config.t -> Proc.t -> footprint
(** The locations the process's next action would read and write,
    computed without committing — what the stubborn-set reduction
    compares across processes (Algorithm 1). *)

(** {1 Transitions} *)

val fire : ctx -> Config.t -> Proc.t -> Config.t * events
(** Fire the next statement-level action of an enabled process.  Runtime
    failures yield an error configuration rather than raising.  Under
    TSO/PSO a plain assignment is appended to the process's store buffer
    instead of hitting the shared store (its access events are still
    charged here, at the program-order point). *)

(** {1 Actions: statement steps and buffer flushes}

    The scheduling alternatives of a configuration.  Engines expand over
    {!enabled_actions}/{!fire_action}; under {!Sc} that is exactly one
    {!Arun} per enabled process, in pid order. *)

type action =
  | Arun of Proc.t  (** run the process's next statement-level action *)
  | Aflush of Proc.t * Value.loc
      (** publish the process's oldest buffered write to that location *)

val action_pid : action -> Value.pid

val enabled_actions : ctx -> Config.t -> action list
(** All enabled actions: [Arun] per enabled process plus, under
    TSO/PSO, the flush alternatives of each non-empty buffer (TSO: the
    buffer head; PSO: the oldest entry per distinct pending location). *)

val fire_action : ctx -> Config.t -> action -> Config.t * events
(** Flushing to a location freed since the write was issued yields an
    error configuration; flushes report no events (the write was charged
    at issue time). *)

val action_footprint_of : ctx -> Config.t -> action -> footprint
(** {!action_footprint} for [Arun]; a flush writes its location. *)

val successors : ctx -> Config.t -> (Value.pid * Config.t * events) list
(** Full expansion: one successor per enabled action (flushes included
    under TSO/PSO). *)
