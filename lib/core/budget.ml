(* Resource governance shared by every exploration engine: counter
   budgets checked on every probe, wall clock and GC watermark sampled
   periodically.  Engines consult a budget instead of raising, so a run
   that exhausts a limit returns its partial result tagged with the
   reason. *)

type reason =
  | Configs of int
  | Transitions of int
  | Deadline of float
  | Heap_words of int
  | Fuel of int
  | Crash of string (* a stage/engine crash the supervisor gave up on *)

type status = Complete | Truncated of reason

let is_complete = function Complete -> true | Truncated _ -> false

let combine a b =
  match a with Complete -> b | Truncated _ -> a

let pp_reason ppf = function
  | Configs n -> Format.fprintf ppf "configuration budget (%d)" n
  | Transitions n -> Format.fprintf ppf "transition budget (%d)" n
  | Deadline s -> Format.fprintf ppf "deadline (%gs)" s
  | Heap_words n -> Format.fprintf ppf "heap watermark (%d words)" n
  | Fuel n -> Format.fprintf ppf "iteration fuel (%d)" n
  | Crash d -> Format.fprintf ppf "crash (%s)" d

let pp_status ppf = function
  | Complete -> Format.pp_print_string ppf "complete"
  | Truncated r -> Format.fprintf ppf "TRUNCATED (%a)" pp_reason r

let reason_to_string r = Format.asprintf "%a" pp_reason r

let status_to_string = function
  | Complete -> "complete"
  | Truncated r -> "truncated: " ^ reason_to_string r

type t = {
  max_configs : int option;
  max_transitions : int option;
  mutable deadline : float option; (* absolute, Unix.gettimeofday scale *)
  timeout_s : float; (* the relative limit, for reporting *)
  max_heap_words : int option;
  check_every : int;
  ticks : int Atomic.t;
  shared : bool; (* consulted concurrently from several domains *)
  trip : reason option Atomic.t; (* shared mode: the one recorded reason *)
}

let create ?max_configs ?max_transitions ?timeout_s ?max_heap_words
    ?(check_every = 256) ?(shared = false) () =
  {
    max_configs;
    max_transitions;
    deadline =
      Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s;
    timeout_s = Option.value timeout_s ~default:0.;
    max_heap_words;
    check_every = max 1 check_every;
    ticks = Atomic.make 0;
    shared;
    trip = Atomic.make None;
  }

let unlimited () = create ()

(* Re-anchor the wall-clock deadline to "now + timeout_s".  The
   deadline is fixed as an absolute instant at [create]; a process that
   creates its budget at startup and only later begins the governed
   work (resuming a checkpoint after loading and re-interning a large
   snapshot) would otherwise start with part — or all — of its timeout
   already spent.  No-op without a configured timeout.  Not
   domain-safe: call before the governed run starts, never while
   another domain may be consulting [check]. *)
let refresh_deadline t =
  match t.deadline with
  | None -> ()
  | Some _ -> t.deadline <- Some (Unix.gettimeofday () +. t.timeout_s)

let is_shared t = t.shared
let tripped t = Atomic.get t.trip

(* Shared mode: latch the first reason observed by any domain.  The CAS
   succeeds exactly once per budget, so every subsequent caller — on any
   domain, from [check] or [config_guard] — reports the single recorded
   reason instead of racing to a different one. *)
let latch t r =
  if Atomic.compare_and_set t.trip None (Some r) then r
  else match Atomic.get t.trip with Some r' -> r' | None -> r

let config_guard t ~configs =
  if t.shared && Atomic.get t.trip <> None then Atomic.get t.trip
  else
    match t.max_configs with
    | Some m when configs >= m ->
        Some (if t.shared then latch t (Configs m) else Configs m)
    | _ -> None

let check t ~configs ~transitions =
  if t.shared && Atomic.get t.trip <> None then Atomic.get t.trip
  else
    let counters =
      match t.max_configs with
      | Some m when configs >= m -> Some (Configs m)
      | _ -> (
          match t.max_transitions with
          | Some m when transitions >= m -> Some (Transitions m)
          | _ -> None)
    in
    let raw =
      match counters with
      | Some _ as r -> r
      | None ->
          (* clock and GC probes on the sampling period; tick 0 is
             sampled so a zero deadline truncates before any work *)
          let sampled =
            Atomic.fetch_and_add t.ticks 1 mod t.check_every = 0
          in
          if not sampled then None
          else
            let timed_out =
              match t.deadline with
              | Some d when Unix.gettimeofday () >= d ->
                  Some (Deadline t.timeout_s)
              | _ -> None
            in
            (match timed_out with
            | Some _ as r -> r
            | None -> (
                match t.max_heap_words with
                | Some m when (Gc.quick_stat ()).Gc.heap_words >= m ->
                    Some (Heap_words m)
                | _ -> None))
    in
    match raw with
    | Some r when t.shared -> Some (latch t r)
    | r -> r

let status_of = function None -> Complete | Some r -> Truncated r

let reason_label = function
  | Configs _ -> "configs"
  | Transitions _ -> "transitions"
  | Deadline _ -> "deadline_s"
  | Heap_words _ -> "heap_words"
  | Fuel _ -> "fuel"
  | Crash _ -> "crash"

type headroom = { h_reason : reason; h_consumed : float; h_limit : float }

(* Introspection for progress events and users: consumed-vs-limit per
   configured dimension, without reaching into the internals.  The
   counter entries mirror [check] exactly: an entry with
   [h_consumed >= h_limit] is one [check] would fire on (clock and heap
   are re-sampled here, so those entries reflect "now", not the last
   sampled probe).  Reads no mutable state — never perturbs the
   sampling cadence. *)
let snapshot t ~configs ~transitions =
  List.filter_map Fun.id
    [
      Option.map
        (fun m ->
          {
            h_reason = Configs m;
            h_consumed = float_of_int configs;
            h_limit = float_of_int m;
          })
        t.max_configs;
      Option.map
        (fun m ->
          {
            h_reason = Transitions m;
            h_consumed = float_of_int transitions;
            h_limit = float_of_int m;
          })
        t.max_transitions;
      Option.map
        (fun d ->
          {
            h_reason = Deadline t.timeout_s;
            h_consumed =
              max 0. (Unix.gettimeofday () -. (d -. t.timeout_s));
            h_limit = t.timeout_s;
          })
        t.deadline;
      Option.map
        (fun m ->
          {
            h_reason = Heap_words m;
            h_consumed = float_of_int (Gc.quick_stat ()).Gc.heap_words;
            h_limit = float_of_int m;
          })
        t.max_heap_words;
    ]
