(* Deterministic fault injection (see fault.mli).

   A fault plan is a list of actions, each bound to a named injection
   site and an occurrence number.  Sites call [hit] (or [worker_pop])
   on every pass; the plan keeps one monotonically increasing counter
   per site, so "the nth hit of site s" names one exact program point
   of a deterministic run — replaying the same plan on the same input
   reproduces the same fault.

   The plan is process-global (like the telemetry registry it reports
   through): engines deep in the library graph reach it without
   threading a context, and the disabled path costs one atomic load. *)

module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

let m_crashes = Metrics.counter "fault.crashes"
let m_delays = Metrics.counter "fault.delays"
let m_ooms = Metrics.counter "fault.ooms"
let m_kills = Metrics.counter "fault.kills"

type action =
  | Crash_at of { site : string; nth : int }
  | Delay_at of { site : string; nth : int; ms : int }
  | Oom_at of { site : string; nth : int }
  | Kill_worker of { domain : int; nth_pop : int }
  | Flaky_at of { site : string; per_mille : int }

type plan = { actions : action list; seed : int }

exception Injected of { site : string; nth : int; kind : string }

let () =
  Printexc.register_printer (function
    | Injected { site; nth; kind } ->
        Some (Printf.sprintf "injected fault: %s@%s:%d" kind site nth)
    | _ -> None)

(* --- the site catalog --- *)

let known_sites =
  [
    "pipeline.static-lint";
    "pipeline.exploration";
    "pipeline.side-effects";
    "pipeline.dependences";
    "pipeline.lifetimes";
    "pipeline.placement";
    "pipeline.ctgc";
    "pipeline.races";
    "pipeline.critical";
    "pipeline.interfere";
    "space.pop";
    "sleep.pop";
    "reach.pop";
    "races.pop";
    "abstract.pop";
    "trace.pop";
    "checkpoint.pop";
    "checkpoint.save";
    "interfere.iter";
  ]

(* "parallel.worker<d>" sites are parameterized by the domain index. *)
let worker_site d = "parallel.worker" ^ string_of_int d

let is_worker_site s =
  String.length s > 15
  && String.sub s 0 15 = "parallel.worker"
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub s 15 (String.length s - 15))

let valid_site s = List.mem s known_sites || is_worker_site s

(* --- parsing and printing --- *)

let to_spec { actions; seed } =
  let entry = function
    | Crash_at { site; nth } -> Printf.sprintf "crash@%s:%d" site nth
    | Delay_at { site; nth; ms } ->
        Printf.sprintf "delay@%s:%d=%dms" site nth ms
    | Oom_at { site; nth } -> Printf.sprintf "oom@%s:%d" site nth
    | Kill_worker { domain; nth_pop } ->
        Printf.sprintf "kill@worker%d:%d" domain nth_pop
    | Flaky_at { site; per_mille } ->
        Printf.sprintf "flaky@%s:%d" site per_mille
  in
  let es = List.map entry actions in
  let es = if seed = 0 then es else es @ [ Printf.sprintf "seed=%d" seed ] in
  String.concat "," es

let parse spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let site_of s =
    if valid_site s then s
    else failwith (Printf.sprintf "unknown injection site %S" s)
  in
  let int_of what s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> failwith (Printf.sprintf "bad %s %S" what s)
  in
  try
    let seed = ref 0 in
    let actions =
      List.filter_map
        (fun e ->
          match String.index_opt e '@' with
          | None -> (
              match String.split_on_char '=' e with
              | [ "seed"; n ] ->
                  seed := int_of "seed" n;
                  None
              | _ -> failwith (Printf.sprintf "bad chaos entry %S" e))
          | Some i -> (
              let kind = String.sub e 0 i in
              let rest = String.sub e (i + 1) (String.length e - i - 1) in
              let j =
                match String.rindex_opt rest ':' with
                | Some j -> j
                | None -> failwith (Printf.sprintf "missing :N in %S" e)
              in
              let site = String.sub rest 0 j in
              let arg = String.sub rest (j + 1) (String.length rest - j - 1) in
              match kind with
              | "crash" ->
                  Some (Crash_at { site = site_of site; nth = int_of "nth" arg })
              | "oom" ->
                  Some (Oom_at { site = site_of site; nth = int_of "nth" arg })
              | "flaky" ->
                  let p = int_of "probability" arg in
                  if p > 1000 then
                    failwith "flaky probability is per-mille (0..1000)";
                  Some (Flaky_at { site = site_of site; per_mille = p })
              | "delay" -> (
                  match String.split_on_char '=' arg with
                  | [ nth; ms ] ->
                      let ms =
                        if String.length ms > 2 && String.ends_with ~suffix:"ms" ms
                        then String.sub ms 0 (String.length ms - 2)
                        else ms
                      in
                      Some
                        (Delay_at
                           {
                             site = site_of site;
                             nth = int_of "nth" nth;
                             ms = int_of "delay" ms;
                           })
                  | _ -> failwith (Printf.sprintf "bad delay entry %S" e))
              | "kill" ->
                  if
                    String.length site > 6
                    && String.sub site 0 6 = "worker"
                  then
                    Some
                      (Kill_worker
                         {
                           domain =
                             int_of "domain"
                               (String.sub site 6 (String.length site - 6));
                           nth_pop = int_of "nth" arg;
                         })
                  else
                    failwith
                      (Printf.sprintf "kill target must be workerD, got %S" site)
              | _ -> failwith (Printf.sprintf "unknown chaos action %S" kind)))
        entries
    in
    if actions = [] then Error "empty chaos spec"
    else Ok { actions; seed = !seed }
  with Failure msg -> Error msg

(* --- the installed plan --- *)

type state = {
  plan : plan;
  lock : Mutex.t;
  counts : (string, int) Hashtbl.t; (* per-site hit counters *)
  mutable rng : int64; (* splitmix64 state, for Flaky_at *)
}

let active : state option Atomic.t = Atomic.make None

let install plan =
  Atomic.set active
    (Some
       {
         plan;
         lock = Mutex.create ();
         counts = Hashtbl.create 16;
         rng = Int64.of_int (plan.seed lxor 0x5deece66d);
       })

let clear () = Atomic.set active None

let installed () =
  Option.map (fun st -> st.plan) (Atomic.get active)

let env_var = "COBEGIN_CHAOS"

let hits () =
  match Atomic.get active with
  | None -> []
  | Some st ->
      Mutex.protect st.lock (fun () ->
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.counts [])
      |> List.sort compare

(* splitmix64 step; full avalanche, so consecutive draws are
   independent enough for the per-mille test below. *)
let next_rand st =
  st.rng <- Int64.add st.rng 0x9e3779b97f4a7c15L;
  let z = st.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3fffffffL)

let bump st key =
  Mutex.protect st.lock (fun () ->
      let n =
        (match Hashtbl.find_opt st.counts key with Some n -> n | None -> 0) + 1
      in
      Hashtbl.replace st.counts key n;
      n)

(* Every firing fault journals its exact coordinates (at Error) just
   before it acts, so a flight-recorder dump shows which injection
   pulled the trigger even when the exception is later swallowed by a
   supervisor. *)
let journal_fault ~site ~n ~kind =
  if Journal.enabled () then
    Journal.emit ~level:Journal.Error "fault.injected"
      [
        ("site", Journal.Str site);
        ("nth", Journal.Int n);
        ("kind", Journal.Str kind);
      ]

(* Fire any action bound to (site, n).  Raising actions raise out of
   the instrumented engine; the exceptions carry the exact coordinates
   so supervisors report a replayable diagnostic. *)
let act st ~site ~n =
  List.iter
    (fun a ->
      match a with
      | Crash_at c when c.site = site && c.nth = n ->
          Metrics.incr m_crashes;
          journal_fault ~site ~n ~kind:"crash";
          raise (Injected { site; nth = n; kind = "crash" })
      | Oom_at c when c.site = site && c.nth = n ->
          (* simulated: a real allocation failure raises the same
             exception from the runtime *)
          Metrics.incr m_ooms;
          journal_fault ~site ~n ~kind:"oom";
          raise Out_of_memory
      | Delay_at c when c.site = site && c.nth = n ->
          Metrics.incr m_delays;
          journal_fault ~site ~n ~kind:"delay";
          Unix.sleepf (float_of_int c.ms /. 1000.)
      | Flaky_at c when c.site = site ->
          let r = Mutex.protect st.lock (fun () -> next_rand st) in
          if r mod 1000 < c.per_mille then begin
            Metrics.incr m_crashes;
            journal_fault ~site ~n ~kind:"flaky";
            raise (Injected { site; nth = n; kind = "flaky" })
          end
      | _ -> ())
    st.plan.actions

let hit site =
  match Atomic.get active with
  | None -> ()
  | Some st -> act st ~site ~n:(bump st site)

let worker_pop domain =
  match Atomic.get active with
  | None -> ()
  | Some st ->
      let site = worker_site domain in
      let n = bump st site in
      List.iter
        (fun a ->
          match a with
          | Kill_worker k when k.domain = domain && k.nth_pop = n ->
              Metrics.incr m_kills;
              journal_fault ~site ~n ~kind:"kill";
              raise (Injected { site; nth = n; kind = "kill" })
          | _ -> ())
        st.plan.actions;
      act st ~site ~n
