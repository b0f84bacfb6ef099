(** Multi-domain state-space generation (OCaml 5 domains).

    Drop-in parallel equivalent of {!Space.full}: the visited set is
    sharded into mutex-protected digest tables, each of [jobs] domains
    owns a work queue and steals from the others when its own runs dry,
    and global progress (admissions, transitions, the truncation latch)
    lives in atomic cells.  The run owns one shared interner
    ({!Cobegin_semantics.Intern.create}[ ~shared:true]) that every
    worker admits through; each worker keeps its own terminals and
    event log, merged after the join.

    {b Determinism.}  For a run that completes, the results are
    bit-identical to the sequential engine's: every reachable
    configuration is admitted exactly once, expansion is a pure function
    of the configuration, so [configurations], [transitions],
    [finals]/[deadlocks]/[errors] and the terminal-configuration
    multisets do not depend on the schedule or on [jobs] — and the
    terminal lists are sorted by canonical representation after the
    join, so even their order is reproducible.  The merged event log
    holds the same distinct events as the sequential engine's.  One
    schedule-dependent exception: [max_frontier] (a parallel frontier
    peaks differently than a sequential BFS queue).

    Truncated runs are a best effort: the shared-budget latch
    guarantees truncation fires once with one recorded reason, but
    which configurations were admitted before the trip — and therefore
    the partial counts — is schedule-dependent, unlike the sequential
    engine.  The admitted-but-unexpanded frontier is still classified
    into the terminal counts, exactly like {!Space.full}. *)

open Cobegin_semantics

exception
  Worker_failed of { domain : int; cause : exn; backtrace : string }
(** A worker domain raised.  The first failure is latched, every
    sibling drains out of the steal loop (no hang on the unbalanced
    in-flight counter) and joins, and the failure is re-raised as this
    structured diagnostic on the calling domain — [cause] is the
    original exception, [backtrace] its captured trace.  Raised by
    {!full} after the join; partial results are discarded (a crashed
    expansion cannot vouch for them). *)

val full :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?spans:Cobegin_obs.Span.t ->
  jobs:int ->
  Step.ctx ->
  Space.result
(** [full ~jobs ctx] generates the full-interleaving configuration
    graph on [jobs] domains.  [jobs <= 1] runs {!Space.full} — the
    sequential engine, byte-for-byte.  When [budget] is omitted, one is
    created with [max_configs] in shared (multi-domain) mode; a
    caller-supplied budget should be created with [~shared:true] so
    truncation is latched once across domains.  Worker 0 journals
    [parallel.progress] every {!Cobegin_obs.Journal.progress_every} of
    its pops, with the run's counts, pools and budget headroom.  When
    [spans] is given, each worker domain runs inside its own
    ["worker<i>"] span, so the trace export renders one lane per
    worker; workers also journal their start/finish (and failures, at
    [Error]) when the process journal is running. *)
