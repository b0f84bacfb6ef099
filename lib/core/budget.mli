(** Unified resource governance for every exploration engine.

    State-space generation explodes (paper section 2); production
    analyzers degrade instead of dying.  A {!t} bundles the resource
    limits a run must respect — configuration count, transition count,
    wall-clock deadline, heap watermark — and the engines consult it
    instead of raising: a run that exhausts a limit stops cleanly and
    returns everything computed so far, tagged {!Truncated} with the
    limit that fired.

    Cheap counter limits are tested on every {!check}; the wall clock
    and the GC watermark are sampled every [check_every] calls (and on
    the very first one, so a zero deadline truncates immediately).

    A single [t] may be shared by several engine runs — the deadline is
    absolute, so sharing implements an end-to-end time box across a
    whole pipeline. *)

(** Why a run stopped early. *)
type reason =
  | Configs of int  (** distinct-configuration budget (the limit) *)
  | Transitions of int  (** fired-transition budget (the limit) *)
  | Deadline of float  (** wall-clock limit, in seconds *)
  | Heap_words of int  (** major-heap watermark, in words *)
  | Fuel of int  (** fixpoint round fuel (interference engine) *)
  | Crash of string
      (** a stage or engine crashed and the supervisor exhausted its
          recovery ladder; the string is the final diagnostic.  The
          partial results reported alongside are still everything that
          was really computed — a [Truncated (Crash _)] report is
          degraded, never fabricated. *)

(** Completion status of an engine run.  [Truncated] results are
    partial but valid: every configuration, statistic and log entry
    reported was really computed. *)
type status = Complete | Truncated of reason

val is_complete : status -> bool

val combine : status -> status -> status
(** [combine a b] is [Complete] only when both are; otherwise the first
    truncation reason in argument order. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_status : Format.formatter -> status -> unit

val reason_to_string : reason -> string

val status_to_string : status -> string
(** ["complete"], or ["truncated: <reason>"] — stable strings for
    machine-readable output (bench JSON, scripts). *)

type t
(** A budget: immutable limits plus an internal sampling counter. *)

val create :
  ?max_configs:int ->
  ?max_transitions:int ->
  ?timeout_s:float ->
  ?max_heap_words:int ->
  ?check_every:int ->
  ?shared:bool ->
  unit ->
  t
(** Omitted limits are unlimited.  [timeout_s] is relative to the call;
    the deadline instant is fixed here.  [check_every] (default 256)
    is the sampling period for the clock and GC probes.

    [shared] (default false) makes the budget safe to consult from
    several OCaml domains at once: the sampling counter is atomic and
    the first exhaustion reason any domain observes is latched with a
    compare-and-set, so truncation {e fires once} — every later
    {!check}/{!config_guard} on any domain reports that single recorded
    reason instead of racing to a different one. *)

val unlimited : unit -> t

val refresh_deadline : t -> unit
(** Re-anchor the wall-clock deadline to now + the [timeout_s] the
    budget was created with; no-op when no timeout was configured.  For
    resumption: a budget created at process startup fixes its deadline
    then, so work that begins later (e.g. {!Cobegin_explore.Checkpoint}
    [resume] after loading a large snapshot) would start with part of
    its timeout already consumed.  Not domain-safe — call before the
    governed run starts, never concurrently with {!check}. *)

val is_shared : t -> bool

val tripped : t -> reason option
(** Shared mode: the latched exhaustion reason, once some domain
    tripped a limit; [None] before that (and always in non-shared
    mode, where no latching happens). *)

val config_guard : t -> configs:int -> reason option
(** Enqueue-side guard: [Some (Configs limit)] when [configs] has
    reached the configuration budget — the engine must not admit a new
    configuration.  Counters only; never samples clock or GC. *)

val check : t -> configs:int -> transitions:int -> reason option
(** Scheduling-side probe, called once per worklist pop: tests every
    limit (clock and heap on the sampling period) and returns the first
    exhausted one. *)

val status_of : reason option -> status
(** [None -> Complete], [Some r -> Truncated r]. *)

val reason_label : reason -> string
(** Stable short label for machine-readable output: ["configs"],
    ["transitions"], ["deadline_s"], ["heap_words"], ["fuel"],
    ["crash"]. *)

type headroom = {
  h_reason : reason;  (** the limit kind, carrying its limit value *)
  h_consumed : float;
  h_limit : float;
}

val snapshot : t -> configs:int -> transitions:int -> headroom list
(** One entry per configured limit, consumed vs limit, so progress
    events and users can report headroom without reaching into the
    internals.  Counter entries mirror {!check}: [h_consumed >= h_limit]
    exactly when [check] (called with the same [configs]/[transitions])
    would return that reason; the clock and heap entries are re-sampled
    at the call.  Never perturbs the sampling cadence of {!check}. *)
