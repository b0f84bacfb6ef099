(** Deterministic, seedable fault injection for chaos testing.

    Engines and pipeline stages are threaded with {e named injection
    sites}: each call to {!hit} bumps a per-site occurrence counter and
    fires any installed action bound to that (site, occurrence) pair.
    Because the engines are deterministic, "the 3rd hit of
    [space.pop]" names one exact program point of a run — a fault plan
    is a {e replayable} schedule of failures, not a fuzzer.

    Plans are compiled from a compact spec (the [--chaos] flag /
    [COBEGIN_CHAOS] env var):

    {v
      crash@space.pop:3            raise at the 3rd pop of the engine
      oom@pipeline.lifetimes:1     simulate allocation failure
      delay@sleep.pop:2=50ms       sleep 50ms at the 2nd pop
      kill@worker1:5               raise in domain 1 at its 5th pop
      flaky@reach.pop:250,seed=7   crash each hit w.p. 250/1000
    v}

    Entries are comma-separated; [seed=N] seeds the PRNG used by
    [flaky@] (every other action is schedule-independent).  The plan is
    process-global: installing one affects every engine in the process
    until {!clear}.  When no plan is installed a site costs one atomic
    load.

    Site catalog: [pipeline.<stage>] (one per pipeline stage, hit just
    before the stage body), [<site>.pop] for every run of the
    exploration kernel — [space], [sleep], [reach], [races],
    [checkpoint], [abstract], [trace] — (once per worklist pop),
    [checkpoint.save] (once per checkpoint write), [interfere.iter]
    (once per interference fixpoint round), and [parallel.worker<d>]
    (once per pop of worker domain [d]).  Telemetry: injected faults count into the
    [fault.crashes] / [fault.delays] / [fault.ooms] / [fault.kills]
    counters. *)

type action =
  | Crash_at of { site : string; nth : int }
      (** raise {!Injected} at the [nth] hit of [site] *)
  | Delay_at of { site : string; nth : int; ms : int }
      (** sleep [ms] milliseconds at the [nth] hit *)
  | Oom_at of { site : string; nth : int }
      (** raise [Out_of_memory] (simulated allocation failure) *)
  | Kill_worker of { domain : int; nth_pop : int }
      (** raise {!Injected} inside parallel worker [domain] at its
          [nth_pop]-th pop — exercises the termination protocol *)
  | Flaky_at of { site : string; per_mille : int }
      (** crash each hit of [site] with probability [per_mille]/1000,
          drawn from the plan's seeded PRNG *)

type plan = { actions : action list; seed : int }

exception Injected of { site : string; nth : int; kind : string }
(** The structured diagnostic a crash/kill action raises: the exact
    replay coordinates.  A printer is registered, so
    [Printexc.to_string] yields ["injected fault: kind@site:nth"]. *)

val parse : string -> (plan, string) result
(** Compile a [--chaos] spec.  Unknown sites, malformed entries and
    empty specs are errors (so typos don't silently inject nothing). *)

val to_spec : plan -> string
(** Inverse of {!parse} (canonical spelling): the replay string. *)

val known_sites : string list
(** The static site catalog (everything except the parameterized
    [parallel.worker<d>] family). *)

val worker_site : int -> string
(** ["parallel.worker<d>"]. *)

val env_var : string
(** ["COBEGIN_CHAOS"] — consulted by the CLI when [--chaos] is absent. *)

val install : plan -> unit
(** Make [plan] the process-global active plan, resetting all site
    counters and the PRNG. *)

val clear : unit -> unit

val installed : unit -> plan option

val hit : string -> unit
(** Called by an instrumented site on every pass: bump the site's
    occurrence counter and fire any matching action.  No-op (one atomic
    load) when no plan is installed.
    @raise Injected / [Out_of_memory] when a crash/oom action matches *)

val worker_pop : int -> unit
(** Per-domain pop site of the parallel engine: like
    [hit (worker_site d)], and additionally fires [Kill_worker] actions
    bound to domain [d]. *)

val hits : unit -> (string * int) list
(** Occurrence counters of the active plan so far, sorted by site —
    lets tests and diagnostics report how far a run got. *)
