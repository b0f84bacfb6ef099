(* Witness traces: a kernel run (site [trace]) whose annotation is the
   schedule that first reached each configuration, stopped at the first
   popped configuration satisfying a predicate.  The order is breadth
   first, so that schedule is a shortest one.  Flushes are steps like
   any other action, so relaxed-memory outcomes get witnesses too.
   Used by corun and by tests that need a concrete interleaving
   exhibiting an outcome. *)

open Cobegin_semantics

type witness = {
  schedule : Replay.step list; (* steps fired, in order *)
  target : Config.t;
  explored : int;
}

let search ?(max_configs = 200_000) ctx ~(pred : Config.t -> bool) :
    witness option =
  let exception Found of witness in
  (* annotations hold the schedule most recent step first *)
  let st = Space.start ctx [] in
  let visit c rev_schedule _ =
    if pred c then
      raise
        (Found
           {
             schedule = List.rev rev_schedule;
             target = c;
             explored = Config.Digest_tbl.length st.Space.visited;
           })
  in
  let expand _ rev_schedule enabled =
    List.map (fun a -> (a, Replay.step_of_action a :: rev_schedule)) enabled
  in
  match
    Space.generate ~max_configs ~visit ~log:false ~site:"trace"
      ~admit:Space.no_revisits ~expand ctx st
  with
  | _ -> None
  | exception Found w -> Some w

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
       Replay.pp_step)
    w.schedule
