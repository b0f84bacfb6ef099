(* Access-anomaly (data-race) detection via co-enabledness: during an
   exploration of the configuration graph, two enabled processes whose
   next-action footprints conflict at the same reachable configuration
   are simultaneously poised to touch the same location — the anomaly
   compile-time debugging tools report (paper sections 1 and 8, [MH89]).

   This is exact up to the engine's atomicity (one statement per action):
   lock-protected accesses never become co-enabled, busy-wait-ordered
   accesses do not race once the await settles. *)

open Cobegin_lang
open Cobegin_semantics
open Cobegin_explore
module Metrics = Cobegin_obs.Metrics

(* Telemetry: process pairs examined for conflicts vs pairs that produced
   at least one anomaly.  No-ops (one branch) while telemetry is off. *)
let m_pairs_scanned = Metrics.counter "race.pairs_scanned"
let m_pairs_confirmed = Metrics.counter "race.pairs_confirmed"

type race = {
  stmt1 : int;
  stmt2 : int;
  loc : Value.loc;
  write_write : bool;
}

let compare_race a b =
  let c =
    compare (a.stmt1, a.stmt2, a.write_write) (b.stmt1, b.stmt2, b.write_write)
  in
  if c <> 0 then c else Value.compare_loc a.loc b.loc

(* The only constructor: pairs are normalized at birth so mirrored
   discoveries collapse in the set and reports are canonical. *)
let make ~stmt1 ~stmt2 ~loc ~write_write =
  {
    stmt1 = min stmt1 stmt2;
    stmt2 = max stmt1 stmt2;
    loc;
    write_write;
  }

module RaceSet = Set.Make (struct
  type t = race

  let compare = compare_race
end)

(* The label the anomaly is reported at.  A process whose head is a
   pending return is about to write the call's destination: attribute
   that to the call site, where the write is visible in the source. *)
let stmt_label_of (p : Proc.t) =
  match p.Proc.stack with
  | Proc.Istmt s :: _ -> s.Ast.label
  | Proc.Iret { site; _ } :: _ -> site
  | _ -> -1

type result = { races : RaceSet.t; status : Budget.status }

(* The pair scan of one configuration: every two enabled processes whose
   next-action footprints conflict.  Synchronization ([Access.is_sync])
   contends by design: its accesses are not anomalies and are left out
   (a fence's footprint is empty anyway).  Flushes are left out — a flush
   publishes a write already charged (and scanned) at its issue point —
   but the exploration still fires them: under TSO/PSO flush
   interleavings reach configurations (stale reads) the process-only
   view would miss. *)
let scan ctx races c () enabled =
  let with_fp =
    List.filter_map
      (function
        | Step.Arun p -> (
            match Proc.next_stmt p with
            | Some s when Access.is_sync s -> None
            | _ -> Some (p, Step.action_footprint ctx c p))
        | Step.Aflush _ -> None)
      enabled
  in
  let rec pairs = function
    | [] -> ()
    | (p1, f1) :: rest ->
        List.iter
          (fun (p2, f2) ->
            let w1 = f1.Step.fwrites and w2 = f2.Step.fwrites in
            let r1 = f1.Step.freads and r2 = f2.Step.freads in
            let module LS = Value.LocSet in
            Metrics.incr m_pairs_scanned;
            let ww = LS.inter w1 w2 in
            let rw = LS.union (LS.inter w1 r2) (LS.inter w2 r1) in
            if not (LS.is_empty ww && LS.is_empty rw) then
              Metrics.incr m_pairs_confirmed;
            let add ~ww locs =
              LS.iter
                (fun loc ->
                  races :=
                    RaceSet.add
                      (make ~stmt1:(stmt_label_of p1)
                         ~stmt2:(stmt_label_of p2) ~loc ~write_write:ww)
                      !races)
                locs
            in
            add ~ww:true ww;
            add ~ww:false rw)
          rest;
        pairs rest
  in
  pairs with_fp

(* Full expansion with the pair scan as the kernel's visitor.  The
   visitor sees every admitted configuration — popped, or drained from
   the frontier when the budget stops the run — so the races reported
   are exactly those of the admitted configurations. *)
let scanned ?max_configs ?budget ~site ~log ctx =
  let races = ref RaceSet.empty in
  let r =
    Space.generate ?max_configs ?budget ~visit:(scan ctx races) ~log
      ~site ~admit:Space.no_revisits ~expand:Space.all_actions ctx
      (Space.start ctx ())
  in
  (r, !races)

let explore ?budget ctx = scanned ?budget ~site:"space" ~log:true ctx

let find ?(max_configs = 200_000) ?budget ctx : result =
  let r, races = scanned ~max_configs ?budget ~site:"races" ~log:false ctx in
  { races; status = r.Space.status }

let pp_race ppf r =
  Format.fprintf ppf "s%d %s s%d on %a"
    r.stmt1
    (if r.write_write then "W/W" else "R/W")
    r.stmt2 Value.pp_loc r.loc

let pp ppf rs =
  if RaceSet.is_empty rs then Format.pp_print_string ppf "no access anomalies"
  else
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_race)
      (RaceSet.elements rs)
