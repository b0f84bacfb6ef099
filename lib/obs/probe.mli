(** Periodic live-progress heartbeat for long engine runs.

    The engines call {!tick} once per worklist pop — the same cadence as
    [Budget.check] — and the probe fires a {!sample} to its sink when at
    least [every_configs] new configurations accumulated since the last
    sample or at least [every_s] seconds of wall time passed (the clock
    is read every [check_every] ticks, mirroring the budget's sampling).
    The non-firing path is one int comparison, so a probe can stay
    attached to a hot loop.

    Pool sizes (intern pools, caches) come from an injected supplier so
    this library depends on nothing above {!Budget}; an exploration
    engine attaches the sizes of its own pools with {!set_pools}. *)

type sample = {
  p_elapsed_s : float;  (** since the probe was created *)
  p_configurations : int;
  p_frontier : int;
  p_transitions : int;
  p_rate : float;  (** transitions per second over the whole run *)
  p_heap_words : int;  (** GC major-heap words *)
  p_pools : (string * int) list;  (** from the [pools] supplier *)
  p_headroom : Budget.headroom list;
      (** consumed vs limit per configured budget dimension *)
}

type sink = sample -> unit

type t

val make :
  ?every_configs:int ->
  ?every_s:float ->
  ?check_every:int ->
  ?clock:(unit -> float) ->
  ?pools:(unit -> (string * int) list) ->
  ?budget:Budget.t ->
  sink ->
  t
(** Defaults: a sample every 5000 configurations or 1 second, the clock
    read every 256 ticks, real time, no pools, no budget headroom. *)

val set_budget : t -> Budget.t -> unit
(** Attach (or replace) the budget whose headroom samples report —
    engines that build their budget internally call this just before
    running. *)

val set_pools : t -> (unit -> (string * int) list) -> unit
(** Replace the pool-size supplier — the exploration kernel attaches
    its run's intern pools this way, as it starts. *)

val tick :
  t -> configurations:int -> frontier:int -> transitions:int -> unit

val fired : t -> int
(** How many samples have been emitted. *)

val stderr_sink : sink
(** One human-readable progress line per sample on stderr. *)

val jsonl_sink : out_channel -> sink
(** One JSON object per sample, one per line, flushed. *)

val sample_to_json : sample -> string
