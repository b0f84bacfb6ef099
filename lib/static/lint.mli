(** The static concurrency lint suite: MHP + lockset races + lock-order
    deadlock cycles + cheap lock/await discipline checks, bundled into a
    canonical position-sorted report.  Polynomial in program size; never
    explores the state space.

    Rules emitted: ["static-race"], ["lock-order-cycle"],
    ["double-acquire"] (an error — the process provably blocks
    forever), ["release-unheld"], ["await-no-writer"]. *)

type result = {
  races : Lockset.race list;
  cycles : Deadlock.cycle list;
  findings : Report.finding list;  (** canonical order, all rules *)
}

val run : Lockset.t -> result
(** The lint over one static base ({!Lockset.of_program}); its races are
    {!Lockset.races} of that base. *)

val pp : Format.formatter -> result -> unit
