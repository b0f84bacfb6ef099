(** [coanalyze serve] — the persistent analysis daemon.

    A long-running Unix-domain-socket server: clients connect, send
    newline-delimited JSON requests, and read one JSON response line
    per request.  Each analysis runs through the ordinary supervised
    {!Cobegin_core.Pipeline} (crash isolation, degradation ladder,
    budgets) and its result is memoized in a content-addressed
    {!Cache} keyed by {!Cobegin_core.Pipeline.run_key}, so repeated
    submissions of the same program × options × memory model are
    served from memory (or the optional on-disk store) with the
    byte-identical report JSON and exit code of the original run.

    {2 Protocol}

    Requests (one JSON object per line):
    - [{"program": SRC, "options": {...}}] (optionally ["op":"analyze"])
      — analyze [SRC] (cobegin source text).  Every option key is
      optional; absent keys take the server's defaults.  One key per
      field of {!Cobegin_core.Pipeline.options}, decoded by the
      field's row of {!Cobegin_core.Pipeline.fields}: [engine] (a
      string {!Cobegin_core.Report.engine_of_string} reads, e.g.
      ["full"], ["stubborn"], ["abstract/signs/clan"] or a report's
      ["concrete/full"]), [memory_model] (["sc"], ["tso"] or ["pso"]),
      [coarsen], [inline], [races], [lint], [interfere] (booleans),
      [max_configs], [max_transitions], [max_heap_words], [jobs]
      (positive integers), [retries] (a non-negative integer) and
      [timeout_s] (a positive number).  The six budget and concurrency
      fields are {e capped} by the server's configuration: a request
      may lower them, never raise them.  Unknown keys, wrongly typed
      values and values out of range are rejected.
    - [{"op":"ping"}] — liveness probe.
    - [{"op":"stats"}] — request and cache counters.
    - [{"op":"shutdown"}] — stop the daemon (after replying).

    Responses:
    - analysis: [{"ok":true,"cache":"hit"|"miss","key":K,
      "exit_code":C,"report":R}] where [K] is the run key, [C] the
      code [coanalyze analyze] would have exited with
      ({!Cobegin_core.Report.report_exit_code}) and [R] the verbatim
      {!Cobegin_core.Report.to_json} object — always the {e last}
      field, so {!response_report_raw} can slice the exact bytes out.
    - errors (unparsable request, unknown option, source that fails to
      parse/check, SC-only engine under tso/pso):
      [{"ok":false,"error":MSG,"exit_code":1}].  An error never kills
      the daemon.

    {2 Isolation}

    The analysis pipeline reports through process-global observability
    state (the {!Cobegin_obs.Metrics} registry, the
    {!Cobegin_obs.Journal} ring).  When the journal is running or a
    span recorder is configured, the daemon serializes the analysis
    section and scopes that state per request —
    [Metrics.reset]/[Journal.clear_ring]/[Span.reset] before each run
    — so one request's counters and flight-recorder breadcrumbs never
    appear in another request's report or crash dump.  With telemetry
    off (the default) requests run concurrently across the worker
    pool.

    Only pristine runs are cached: no stage failures, not degraded,
    empty recovery ladder, no fault plan installed — a chaos-disturbed
    result is returned to its requester but never memoized. *)

open Cobegin_core

type config = {
  socket : string;  (** path of the Unix-domain listening socket *)
  capacity : int;  (** memory-tier LRU capacity, in entries *)
  cache_dir : string option;  (** on-disk cache tier, see {!Cache} *)
  pool : int;  (** worker domains accepting connections, min 1 *)
  defaults : Pipeline.options;
      (** per-request defaults {e and} caps: requests may lower
          budgets/[jobs]/[retries] below these, never raise them *)
  spans : Cobegin_obs.Span.t option;
      (** when given, analyses run under this recorder (reset per
          request, analysis section serialized) and reports carry
          per-stage telemetry — at the cost of request concurrency *)
}

type t

val make : config -> t
(** Build the daemon state (cache included).  No I/O besides creating
    [cache_dir] when configured. *)

val handle_line : t -> string -> string * bool
(** [handle_line t line] processes one request line and returns the
    response line (no trailing newline) and whether the request asked
    the daemon to shut down.  This is the whole protocol — {!run} is
    only sockets around it — and what the tests drive directly. *)

val run : ?on_listening:(unit -> unit) -> t -> unit
(** Bind the socket (unlinking any stale one), call [on_listening] once
    it accepts connections, spawn the worker pool, and serve until a
    shutdown request.  Removes the socket file on
    the way out.  SIGPIPE is ignored (a client hanging up mid-response
    must not kill the daemon). *)

(** {2 Client side} *)

val analyze_line : ?options_json:string -> string -> string
(** [analyze_line ?options_json source] renders an analysis request
    line: the source JSON-escaped, [options_json] (a raw JSON object,
    the caller's responsibility) attached verbatim. *)

val options_to_json : Pipeline.options -> string
(** The request encoding of a record: every field present, absent
    limits left out, floats written without loss, so
    {!options_of_json} under caps that do not bind gives the record
    back. *)

val request : socket:string -> string -> string
(** One-shot client: connect to [socket], send [line], return the
    response line.  Raises [Unix.Unix_error] when the daemon is not
    there and [End_of_file] if it hangs up without replying. *)

val response_report_raw : string -> string option
(** The verbatim report bytes of an analysis response — sliced out by
    position (the ["report"] field is always last), so a client can
    re-emit exactly what [coanalyze analyze --json] would have
    printed, byte for byte.  [None] on error responses. *)

(** {2 Exposed for tests} *)

val options_of_json :
  defaults:Pipeline.options -> Sjson.t -> (Pipeline.options, string) result
(** The request-options decoder: [Null] means [defaults], objects
    override field-wise with caps applied, anything else (and any
    unknown key or refused value) is an error. *)
