(* The busy-waiting example from the paper's introduction: a sequential
   compiler would hoist the load of [flag] out of the waiting loop and
   break the program.  The framework sees the cross-thread flow
   dependence (flag is a critical reference), so the "optimization" is
   rejected; it also proves the synchronized read of [data] is *not* a
   race, while the unsynchronized variant is.

     dune exec examples/busywait_opt.exe *)

open Cobegin_core
open Cobegin_models
open Cobegin_analysis

let () =
  let prog = Pipeline.load_source Figures.busywait in
  Format.printf "program:@.%a@." Cobegin_lang.Pretty.pp_program prog;

  let report = Pipeline.analyze prog in

  (* 1. flag and data are critical references: no reordering across them *)
  Format.printf "=== critical references ===@.%a@.@."
    Cobegin_trans.Critical.pp report.Pipeline.critical;

  (* 2. every interleaving satisfies the final assertion: exploration
     finds no error configuration *)
  Format.printf "=== exploration ===@.%a@.@." Cobegin_explore.Space.pp_stats
    report.Pipeline.stats;
  assert (report.Pipeline.stats.Pipeline.errors = 0);

  (* 3. the await-synchronized accesses to data are never co-enabled... *)
  let ctx = Cobegin_semantics.Step.make_ctx prog in
  let races = (Race.find ctx).Race.races in
  Format.printf "races (synchronized version): %a@.@." Race.pp races;

  (* ...but the racy counter version shows anomalies *)
  let racy = Pipeline.load_source Figures.mutex_racy in
  let races' = (Race.find (Cobegin_semantics.Step.make_ctx racy)).Race.races in
  Format.printf "races (unsynchronized counter): %a@." Race.pp races';
  assert (not (Race.RaceSet.is_empty races'))
