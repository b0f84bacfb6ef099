(* Periodic live-progress heartbeat for long engine runs.

   The engines call [tick] once per worklist pop — the same cadence as
   [Budget.check] — and the probe fires a sample whenever enough new
   configurations accumulated or enough wall time passed.  The
   non-firing path costs one int comparison plus, every [check_every]
   ticks, one clock read: cheap enough to leave attached to hot loops.

   Samples go to a pluggable sink: a stderr progress line or a JSONL
   stream.  Pool sizes come from an injected supplier, which an
   exploration engine replaces with its own pools' sizes, so this
   library depends on nothing above Budget. *)

type sample = {
  p_elapsed_s : float;
  p_configurations : int;
  p_frontier : int;
  p_transitions : int;
  p_rate : float; (* transitions per second since the probe started *)
  p_heap_words : int;
  p_pools : (string * int) list;
  p_headroom : Budget.headroom list;
}

type sink = sample -> unit

type t = {
  every_configs : int;
  every_s : float;
  check_every : int;
  clock : unit -> float;
  mutable pools : unit -> (string * int) list;
  mutable budget : Budget.t option;
  sink : sink;
  t0 : float;
  mutable ticks : int;
  mutable last_fire_configs : int;
  mutable last_fire_t : float;
  mutable fired : int;
}

let make ?(every_configs = 5_000) ?(every_s = 1.0) ?(check_every = 256)
    ?(clock = Unix.gettimeofday) ?(pools = fun () -> []) ?budget sink =
  let t0 = clock () in
  {
    every_configs = max 1 every_configs;
    every_s;
    check_every = max 1 check_every;
    clock;
    pools;
    budget;
    sink;
    t0;
    ticks = 0;
    last_fire_configs = 0;
    last_fire_t = t0;
    fired = 0;
  }

let set_budget t b = t.budget <- Some b
let set_pools t pools = t.pools <- pools
let fired t = t.fired

let fire t ~configurations ~frontier ~transitions ~now =
  let elapsed = now -. t.t0 in
  let sample =
    {
      p_elapsed_s = elapsed;
      p_configurations = configurations;
      p_frontier = frontier;
      p_transitions = transitions;
      p_rate =
        (if elapsed > 0. then float_of_int transitions /. elapsed else 0.);
      p_heap_words = (Gc.quick_stat ()).Gc.heap_words;
      p_pools = t.pools ();
      p_headroom =
        (match t.budget with
        | None -> []
        | Some b -> Budget.snapshot b ~configs:configurations ~transitions);
    }
  in
  t.fired <- t.fired + 1;
  t.last_fire_configs <- configurations;
  t.last_fire_t <- now;
  t.sink sample

let tick t ~configurations ~frontier ~transitions =
  if configurations - t.last_fire_configs >= t.every_configs then
    fire t ~configurations ~frontier ~transitions ~now:(t.clock ())
  else begin
    let sampled = t.ticks mod t.check_every = 0 in
    t.ticks <- t.ticks + 1;
    if sampled then begin
      let now = t.clock () in
      if now -. t.last_fire_t >= t.every_s then
        fire t ~configurations ~frontier ~transitions ~now
    end
  end

(* --- sinks --- *)

let pp_headroom_line buf hs =
  List.iteri
    (fun i h ->
      Buffer.add_string buf (if i = 0 then " budget " else " ");
      Printf.bprintf buf "%s=%.0f/%.0f"
        (Budget.reason_label h.Budget.h_reason)
        h.Budget.h_consumed h.Budget.h_limit)
    hs

let stderr_sink sample =
  let buf = Buffer.create 128 in
  Printf.bprintf buf
    "[probe] %6.1fs configs=%d frontier=%d transitions=%d (%.0f/s) heap=%.1fMW"
    sample.p_elapsed_s sample.p_configurations sample.p_frontier
    sample.p_transitions sample.p_rate
    (float_of_int sample.p_heap_words /. 1e6);
  List.iter
    (fun (name, v) -> Printf.bprintf buf " %s=%d" name v)
    sample.p_pools;
  pp_headroom_line buf sample.p_headroom;
  prerr_endline (Buffer.contents buf)

let sample_to_json sample =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "{\"elapsed_s\":%s,\"configurations\":%d,\"frontier\":%d,\"transitions\":%d,\"rate\":%s,\"heap_words\":%d,\"pools\":{"
    (Obs_json.float sample.p_elapsed_s)
    sample.p_configurations sample.p_frontier sample.p_transitions
    (Obs_json.float sample.p_rate)
    sample.p_heap_words;
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Obs_json.escape_into buf name;
      Printf.bprintf buf ":%d" v)
    sample.p_pools;
  Buffer.add_string buf "},\"budget\":[";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"limit\":%s,\"consumed\":%s,\"max\":%s}"
        (Obs_json.string (Budget.reason_label h.Budget.h_reason))
        (Obs_json.float h.Budget.h_consumed)
        (Obs_json.float h.Budget.h_limit))
    sample.p_headroom;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let jsonl_sink oc sample =
  output_string oc (sample_to_json sample);
  output_char oc '\n';
  flush oc
