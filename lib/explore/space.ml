(* The state-space generation engine (paper section 2).

   The concrete instance of the exploration kernel (Kernel): the
   configurations of the interleaving semantics, kept from the run's
   interner, with the actions of Step as transitions and the distinct
   events they perform as the log, which is the input of the section-5
   analyses.  The full and stubborn strategies, the sleep-set engine,
   checkpointed runs, the race scan and the witness search are all
   calls to [generate]. *)

open Cobegin_semantics

type stats = Kernel.stats = {
  configurations : int;
  transitions : int;
  max_frontier : int;
  finals : int;
  deadlocks : int;
  errors : int;
}

module Instance = struct
  type ctx = Step.ctx
  type config = Config.t
  type action = Step.action
  type key = Config.digest

  module Tbl = Config.Digest_tbl

  (* The run owns its interner: its pools hold exactly the components
     this run met, and every admitted configuration is rebuilt from
     them (Config.intern). *)
  type pools = Intern.state

  let new_pools _ = Intern.create ()
  let intern = Config.intern
  let pool_sizes = Intern.sizes

  type events = Step.events
  type log = Step.log

  let new_log = Step.new_log
  let record = Step.record
  let logged = Step.logged
  let init = Step.init

  let classify ctx (t : config Kernel.terminals) c =
    if Config.is_error c then begin
      t.errors <- c :: t.errors;
      []
    end
    else if Config.all_terminated c then begin
      t.finals <- c :: t.finals;
      []
    end
    else
      match Step.enabled_actions ctx c with
      | [] ->
          t.deadlocks <- c :: t.deadlocks;
          []
      | actions -> actions

  let fire ctx c a =
    let c', evs = Step.fire_action ctx c a in
    ([ c' ], evs)

  (* A configuration is its key: a revisit adds nothing. *)
  let merge _ ~into:_ _ = false
end

include Kernel.Make (Instance)

(* Ordinary (full interleaving) generation. *)
let full ?max_configs ?budget ctx =
  generate ?max_configs ?budget ~site:"space" ~admit:no_revisits
    ~expand:all_actions ctx (start ctx ())

(* Canonical set of final stores, for strategy comparisons: sorted and
   deduplicated by the canonical representation, so it compares equal
   across runs and engines, whatever their interners. *)
let final_store_reprs (r : result) =
  List.sort_uniq compare
    (List.map (fun c -> Store.repr c.Config.store) r.final_configs)

let pp_stats = Kernel.pp_stats
