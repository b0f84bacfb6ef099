(* Shared helpers for the test suites. *)

open Cobegin_lang

let parse src =
  let prog = Parser.parse_string src in
  Check.check_exn prog;
  prog

let ctx_of src = Cobegin_semantics.Step.make_ctx (parse src)

let explore_full ?max_configs src =
  Cobegin_explore.Space.full ?max_configs (ctx_of src)

let explore_stubborn ?max_configs src =
  Cobegin_explore.Stubborn.explore ?max_configs (ctx_of src)

(* qcheck case registered under alcotest. *)
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Generator of small random ints. *)
let small_int = QCheck2.Gen.int_range (-20) 20

(* Random seed for program generation. *)
let seed_gen = QCheck2.Gen.int_range 1 1_000_000

(* Small random terminating cobegin programs. *)
let random_program ?(cfg = Cobegin_models.Generator.default_cfg) seed =
  Cobegin_models.Generator.program ~cfg ~seed ()

(* Every transition of [prog]'s state space under [model], breadth
   first: [f st (c, d) c'] for each action fired at an admitted
   configuration [c], kept by [Config.intern st] with digest [d], whose
   successor is [c'].  Successors are admitted by [Config.intern st]
   without a parent, at most [cap] of them. *)
let iter_transitions ?(model = Cobegin_semantics.Step.Sc) ?(cap = max_int)
    prog f =
  let open Cobegin_semantics in
  let ctx = Step.make_ctx ~model prog in
  let st = Intern.create () in
  let seen = Config.Digest_tbl.create 64 and queue = Queue.create () in
  let admit ((_, d) as cd) =
    if Config.Digest_tbl.length seen < cap && not (Config.Digest_tbl.mem seen d)
    then begin
      Config.Digest_tbl.replace seen d ();
      Queue.add cd queue
    end
  in
  admit (Config.intern st (Step.init ctx));
  while not (Queue.is_empty queue) do
    let ((c, _) as parent) = Queue.pop queue in
    List.iter
      (fun a ->
        let c' = fst (Step.fire_action ctx c a) in
        f st parent c';
        admit (Config.intern st c'))
      (Step.enabled_actions ctx c)
  done

(* Sorted outcome multiset of an exploration: final stores canonically. *)
let final_reprs (r : Cobegin_explore.Space.result) =
  Cobegin_explore.Space.final_store_reprs r

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

(* Install a fault plan for the duration of [f]; counters reset on
   install so cases cannot leak hits into each other. *)
let with_chaos spec f =
  (match Fault.parse spec with
  | Ok plan -> Fault.install plan
  | Error e -> Alcotest.failf "bad test chaos spec %S: %s" spec e);
  Fun.protect ~finally:Fault.clear f

(* Every JSON artifact the framework emits must parse with the
   protocol's strict reader. *)
let json_valid s = Result.is_ok (Cobegin_serve.Sjson.parse s)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* Run [f] with the journal started (ring-only unless [sink] or
   [progress]; the clock frozen at 0 unless [clock]), always stopping it
   afterwards so other suites see the disabled default. *)
let with_journal ?threshold ?capacity ?(clock = fun () -> 0.0) ?sink
    ?progress f =
  Cobegin_obs.Journal.start ?threshold ?capacity ~clock ?sink ?progress ();
  Fun.protect ~finally:Cobegin_obs.Journal.stop f

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

(* The lines [f oc] writes to a fresh temporary channel. *)
let lines_written f =
  let path = Filename.temp_file "lines" ".txt" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      f oc;
      close_out oc;
      read_lines path)
