(* Witness traces: breadth-first search for a configuration satisfying a
   predicate, keeping parent links so the schedule (sequence of pids) that
   reaches it can be reported.  Used by the race reporter and by tests
   that need a concrete interleaving exhibiting an outcome. *)

open Cobegin_semantics

type witness = {
  schedule : Value.pid list; (* pids fired, in order *)
  target : Config.t;
  explored : int;
}

(* The search owns its interner, like every exploration: admitted
   configurations are rebuilt from its pools (Config.intern).  The
   parent map is keyed by digest and records the parent's digest. *)
let search ?(max_configs = 200_000) ctx ~(pred : Config.t -> bool) :
    witness option =
  let interner = Intern.create () in
  let visited = Config.Digest_tbl.create 1024 in
  let queue = Queue.create () in
  (* parent map: digest -> (parent digest, pid fired) *)
  let parents = Config.Digest_tbl.create 1024 in
  let rebuild d =
    let rec go d acc =
      match Config.Digest_tbl.find_opt parents d with
      | None -> acc
      | Some (parent, pid) -> go parent (pid :: acc)
    in
    go d []
  in
  let result = ref None in
  let c0, d0 = Config.intern interner (Step.init ctx) in
  Config.Digest_tbl.replace visited d0 ();
  Queue.add (c0, d0) queue;
  (try
     while not (Queue.is_empty queue) do
       let c, d = Queue.pop queue in
       if pred c then begin
         result :=
           Some
             {
               schedule = rebuild d;
               target = c;
               explored = Config.Digest_tbl.length visited;
             };
         raise Exit
       end;
       if not (Config.is_error c) then
         List.iter
           (fun p ->
             let c', d' =
               Config.intern interner (fst (Step.fire ctx c p))
             in
             if
               (not (Config.Digest_tbl.mem visited d'))
               && Config.Digest_tbl.length visited < max_configs
             then begin
               Config.Digest_tbl.replace visited d' ();
               Config.Digest_tbl.replace parents d' (d, p.Proc.pid);
               Queue.add (c', d') queue
             end)
           (Step.enabled_processes ctx c)
     done
   with Exit -> ());
  !result

(* Convenience: a schedule reaching an error configuration. *)
let error_witness ?max_configs ctx =
  search ?max_configs ctx ~pred:Config.is_error

(* A schedule reaching a final configuration whose store satisfies [pred]. *)
let final_witness ?max_configs ctx ~pred =
  search ?max_configs ctx ~pred:(fun c ->
      Config.all_terminated c && pred c.Config.store)

let pp_witness ppf w =
  Format.fprintf ppf "@[<v>schedule (%d steps, %d configs explored):@ %a@]"
    (List.length w.schedule) w.explored
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " → ")
       Value.pp_pid)
    w.schedule
