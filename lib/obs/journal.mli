(** Leveled structured event journal with a flight recorder.

    Engines and the pipeline emit {e events} — a name, a level, a few
    typed fields — through one process-global journal.  While the
    journal is disabled (the default) every {!emit} costs a single
    atomic load and allocates nothing, so emission sites can stay in
    engine loops.

    When started, the journal does up to three things with each event:

    - appends it to a {e bounded ring buffer} (default 256 slots) that
      always holds the most recent events of {e every} level — the
      flight recorder.  On a crash, {!flight_dump} renders the ring so
      the last moments before the failure are recoverable even when no
      sink was configured or the sink's threshold filtered the
      breadcrumbs out;
    - writes it to the optional JSONL sink (one JSON object per line,
      flushed) when its level passes the sink threshold;
    - renders it on the optional heartbeat when it is a progress event
      and a second has passed since the last line ([--progress]).

    Events carry a process-wide sequence number (a total order even
    across domains), a timestamp relative to {!start}, and the id of
    the emitting domain — multi-domain runs interleave safely; dumps
    sort by sequence number, so artifacts are deterministic given a
    deterministic emission order.

    The journal is process-global like {!Metrics}: engines deep in the
    library graph reach it without threading a context. *)

(** Severity, ordered [Debug < Info < Warn < Error]. *)
type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"] — stable. *)

val level_of_string : string -> level option
(** Inverse of {!level_name} (case-insensitive). *)

(** A typed field value. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  e_seq : int;  (** process-wide sequence number, from 0 at {!start} *)
  e_ts : float;  (** seconds since {!start} *)
  e_level : level;
  e_domain : int;  (** id of the emitting domain *)
  e_name : string;  (** dotted site name, e.g. ["space.done"] *)
  e_fields : (string * value) list;
}

val enabled : unit -> bool
(** One atomic load — the guard emission sites test before building
    their field lists. *)

val start :
  ?threshold:level ->
  ?capacity:int ->
  ?clock:(unit -> float) ->
  ?sink:out_channel ->
  ?progress:out_channel ->
  unit ->
  unit
(** Enable the journal: reset the sequence counter and the ring (sized
    [capacity], default 256, clamped to at least 1), anchor timestamps
    at now, and attach [sink], to which events of level [>= threshold]
    (default [Info]) are written as JSONL.  The ring records every
    event regardless of [threshold].

    [progress] attaches the heartbeat: every [*.progress] event, whatever
    [threshold] says, may print one human-readable line on it — the
    event's name, seconds since [start], configurations, frontier,
    transitions, the rate (transitions per second since the engine
    started: since the event journaled before its first progress event,
    so a [*.done] event or another engine's progress), the
    major heap (read only when a line prints), the pool sizes and the
    budget headroom.  A line prints once at least one second has passed
    since [start], then at most once a second.

    The caller owns both channels — the journal flushes them but never
    closes them.  [clock] is injectable for deterministic tests (default
    [Unix.gettimeofday]); it stamps events and paces the heartbeat. *)

val stop : unit -> unit
(** Disable and detach the sinks (flushing them first).  The ring's
    contents are dropped. *)

val emit : ?level:level -> string -> (string * value) list -> unit
(** Record one event.  No-op (one atomic load) while disabled. *)

(** {1 Progress}

    Every engine loop reports progress through {!progress}, so the
    event's shape is decided here. *)

val progress_every : int
(** The sampling period of the loops that pop a worklist: one progress
    event per this many pops (256), so an enabled journal costs the
    ring lock on ~0.4% of iterations. *)

val progress :
  string ->
  configurations:int ->
  frontier:int ->
  transitions:int ->
  ?pools:(string * int) list ->
  ?budget:Budget.t ->
  (string * value) list ->
  unit
(** [progress engine ~configurations ~frontier ~transitions extra]
    records the Debug event [<engine>.progress].  Its fields, in order:
    [configurations], [frontier] and [transitions]; the engine's own
    [extra] fields; [pool.<name>] for each of [pools] (the engine's
    intern-pool sizes); and for each limit [budget] configures
    ({!Budget.snapshot} at [configurations] and [transitions]) the
    fields [budget.<label>] (consumed) and [budget.<label>.limit] —
    integers, but for the deadline's seconds.
    No-op while disabled; callers guard the arguments they build with
    {!enabled}. *)

val ring_events : unit -> event list
(** The flight recorder's current contents, oldest first (sorted by
    sequence number).  Empty while disabled. *)

val ring_capacity : unit -> int
(** The configured ring size (0 while disabled). *)

val clear_ring : unit -> unit
(** Empty the flight recorder without stopping the journal: the ring's
    slots are dropped, the sink stays attached, and the sequence
    counter keeps running (ordering stays a process-wide total order).
    Callers that run several analyses in one process — the serve
    daemon, a test harness — clear the ring at each run's start so a
    crash dumps only that run's breadcrumbs, never a predecessor's.
    No-op while disabled. *)

val event_to_json : event -> string
(** One JSON object:
    [{"seq":0,"ts":1.5,"level":"info","domain":0,"event":"space.done",
    "fields":{...}}]. *)

val flight_dump : reason:string -> unit -> string list
(** Render the ring as JSON lines (oldest first) and — when a sink is
    attached — write a single [flight_recorder] event to it carrying
    [reason] and the ring, {e bypassing the threshold}.  Returns the
    rendered lines so callers can attach them to a report.  Empty list
    while disabled. *)
