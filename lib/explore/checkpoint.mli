(** Checkpointed state-space generation: {!Space.full} that survives
    being killed.

    The engine is {!Space.generate} with full expansion and a boundary
    hook that serializes the kernel state ({!Space.state}: the run's
    interner, visited set, frontier, terminal configurations,
    transition counter and event log) to [path].  The interner is plain
    data, so its whole pools are saved with their ids and a resumed run
    carries on with them: nothing is re-interned and no digest is
    re-keyed.  Writes are atomic (temp file + rename): a crash
    mid-write leaves the previous checkpoint intact.

    {b Determinism contract.}  The BFS is deterministic and saves sit
    at iteration boundaries, so a checkpoint is the exact state of the
    uninterrupted run between two pops.  Killing a run at any point and
    {!resume}-ing its last checkpoint therefore reports {e identical}
    final statistics — configurations, transitions, max_frontier,
    finals, deadlocks, errors — and identical final stores, as the run
    that was never killed.  A truncated run also saves its final state,
    so it can be resumed under a larger budget; when a configuration
    budget cut an expansion short, the state keeps the unfired remainder
    ({!Space.remainder}) and the resumed run fires it first, so it too
    ends with the uninterrupted run's statistics.

    A checkpoint is bound to the program {e and memory model} that
    produced it (a full-width hash of the marshaled AST, combined with
    the model name, is stored in the header); resuming under a
    different program or model, a different format version, or a torn
    file raises {!Corrupt}.  Format version 6: the payload is the
    kernel state itself, interner included, with a key in each
    frontier entry; older files are refused.
    Telemetry: [checkpoint.saves] / [checkpoint.restores] counters,
    [checkpoint.save_ms] / [checkpoint.restore_ms] histograms. *)

open Cobegin_semantics

exception Corrupt of string
(** The file at [path] is not a usable checkpoint: bad magic, wrong
    format version, written for a different program, or truncated. *)

type cadence = {
  every_configs : int;  (** save every n worklist pops *)
  every_s : float option;  (** and every s seconds, when set *)
}

val default_cadence : cadence
(** Every 4096 pops, no time trigger. *)

val full :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?cadence:cadence ->
  path:string ->
  Step.ctx ->
  Space.result
(** [full ~path ctx] — {!Space.full} with checkpoints written to
    [path].  On a complete run the result equals {!Space.full}'s,
    field for field. *)

val resume :
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?cadence:cadence ->
  path:string ->
  Step.ctx ->
  Space.result
(** [resume ~path ctx] — load the checkpoint at [path] (written for
    the same program and memory model) and continue it, checkpointing
    onward to the same [path].  When [budget] carries a wall-clock
    timeout its deadline is re-anchored ({!Budget.refresh_deadline})
    after the checkpoint is loaded, so the resumed run gets the full
    timeout from the point the BFS restarts — not from budget
    creation.
    @raise Corrupt when the file is missing, torn, version-skewed or
    bound to a different program or memory model *)
