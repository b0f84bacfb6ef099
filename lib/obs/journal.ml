(* Structured event journal (see journal.mli).

   One process-global journal: an atomic enabled flag guards the empty
   fast path, and a single mutex serializes the slow path — sequence
   numbering, the ring append and the sink write — so events from
   concurrent domains interleave without tearing and the sequence
   numbers are a total order.  The ring records every emitted event
   whatever the sink threshold says: the flight recorder must keep the
   debug breadcrumbs that precede a crash even when the sink only wants
   warnings.  The heartbeat is a third sink: it sees every progress
   event, whatever the threshold, and prints at most one a second. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  e_seq : int;
  e_ts : float;
  e_level : level;
  e_domain : int;
  e_name : string;
  e_fields : (string * value) list;
}

(* The heartbeat prints the next progress event stamped [next] or later.
   Engines run one after another with their counts restarting at zero,
   so a rate is taken since the running engine started: [since] is the
   stamp of the event journaled just before the first progress event of
   [engine] — the previous engine's last sign of life, or its [*.done]
   event, after which [engine] is forgotten — and [last] the stamp of
   the latest event. *)
type heartbeat = {
  oc : out_channel;
  mutable next : float;
  mutable engine : string;
  mutable since : float;
  mutable last : float;
}

type state = {
  threshold : level;
  clock : unit -> float;
  t0 : float;
  ring : event option array; (* capacity slots, seq mod capacity *)
  mutable seq : int;
  mutable sink : out_channel option;
  heartbeat : heartbeat option;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* The mutex guards [state] and every field inside it; the atomic flag
   is only the fast-path guard and is flipped under the mutex. *)
let lock = Mutex.create ()
let state : state option ref = ref None

let default_capacity = 256

let start ?(threshold = Info) ?(capacity = default_capacity)
    ?(clock = Unix.gettimeofday) ?sink ?progress () =
  Mutex.protect lock (fun () ->
      state :=
        Some
          {
            threshold;
            clock;
            t0 = clock ();
            ring = Array.make (max 1 capacity) None;
            seq = 0;
            sink;
            heartbeat =
              Option.map
                (fun oc ->
                  { oc; next = 1.0; engine = ""; since = 0.0; last = 0.0 })
                progress;
          };
      Atomic.set enabled_flag true)

let stop () =
  Mutex.protect lock (fun () ->
      Atomic.set enabled_flag false;
      Option.iter
        (fun st ->
          Option.iter flush st.sink;
          Option.iter (fun hb -> flush hb.oc) st.heartbeat)
        !state;
      state := None)

let add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (Obs_json.float f)
  | Str s -> Obs_json.escape_into buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let event_into buf ev =
  Printf.bprintf buf "{\"seq\":%d,\"ts\":%s,\"level\":\"%s\",\"domain\":%d"
    ev.e_seq
    (Obs_json.float ev.e_ts)
    (level_name ev.e_level) ev.e_domain;
  Buffer.add_string buf ",\"event\":";
  Obs_json.escape_into buf ev.e_name;
  Buffer.add_string buf ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Obs_json.escape_into buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    ev.e_fields;
  Buffer.add_string buf "}}"

let event_to_json ev =
  let buf = Buffer.create 128 in
  event_into buf ev;
  Buffer.contents buf

let suffix ~prefix s =
  if String.starts_with ~prefix s then
    let n = String.length prefix in
    Some (String.sub s n (String.length s - n))
  else None

(* One heartbeat line from a progress event (see [progress] for its
   fields) of an engine running since [since]; the heap is read here,
   only when a line prints. *)
let heartbeat_line ~since ev =
  let field k = List.assoc_opt k ev.e_fields in
  let int k = match field k with Some (Int n) -> n | _ -> 0 in
  let transitions = int "transitions" in
  let elapsed = ev.e_ts -. since in
  let buf = Buffer.create 160 in
  Printf.bprintf buf
    "[%s] %6.1fs configs=%d frontier=%d transitions=%d (%.0f/s) heap=%.1fMW"
    ev.e_name ev.e_ts (int "configurations") (int "frontier") transitions
    (if elapsed > 0. then float_of_int transitions /. elapsed else 0.)
    (float_of_int (Gc.quick_stat ()).Gc.heap_words /. 1e6);
  let text = function
    | Int n -> string_of_int n
    | Float x -> Printf.sprintf "%.0f" x
    | Str s -> s
    | Bool b -> string_of_bool b
  in
  (* the pools come before the budget in every progress event *)
  let sep = ref " budget " in
  List.iter
    (fun (k, v) ->
      match (suffix ~prefix:"pool." k, suffix ~prefix:"budget." k) with
      | Some name, _ -> Printf.bprintf buf " %s=%s" name (text v)
      | None, Some label -> (
          match field (k ^ ".limit") with
          | Some limit ->
              Printf.bprintf buf "%s%s=%s/%s" !sep label (text v) (text limit);
              sep := " "
          | None -> ())
      | None, None -> ())
    ev.e_fields;
  Buffer.contents buf

let emit ?(level = Info) name fields =
  if Atomic.get enabled_flag then
    Mutex.protect lock (fun () ->
        match !state with
        | None -> ()
        | Some st ->
            let ev =
              {
                e_seq = st.seq;
                e_ts = st.clock () -. st.t0;
                e_level = level;
                e_domain = (Domain.self () :> int);
                e_name = name;
                e_fields = fields;
              }
            in
            st.ring.(st.seq mod Array.length st.ring) <- Some ev;
            st.seq <- st.seq + 1;
            (match st.sink with
            | Some oc when level_rank level >= level_rank st.threshold ->
                output_string oc (event_to_json ev);
                output_char oc '\n';
                flush oc
            | _ -> ());
            match st.heartbeat with
            | None -> ()
            | Some hb ->
                if String.ends_with ~suffix:".progress" name then begin
                  if name <> hb.engine then begin
                    hb.engine <- name;
                    hb.since <- hb.last
                  end;
                  if ev.e_ts >= hb.next then begin
                    hb.next <- ev.e_ts +. 1.0;
                    output_string hb.oc (heartbeat_line ~since:hb.since ev);
                    output_char hb.oc '\n';
                    flush hb.oc
                  end
                end
                else if String.ends_with ~suffix:".done" name then
                  hb.engine <- "";
                hb.last <- ev.e_ts)

let progress_every = 256

let progress engine ~configurations ~frontier ~transitions ?(pools = [])
    ?budget extra =
  if Atomic.get enabled_flag then
    let headroom =
      match budget with
      | None -> []
      | Some b -> Budget.snapshot b ~configs:configurations ~transitions
    in
    emit ~level:Debug (engine ^ ".progress")
      ((("configurations", Int configurations)
       :: ("frontier", Int frontier)
       :: ("transitions", Int transitions)
       :: extra)
      @ List.map (fun (name, n) -> ("pool." ^ name, Int n)) pools
      @ List.concat_map
          (fun h ->
            let k = "budget." ^ Budget.reason_label h.Budget.h_reason in
            (* counts stay integers; only the deadline is in seconds *)
            let v x =
              match h.Budget.h_reason with
              | Budget.Deadline _ -> Float x
              | _ -> Int (int_of_float x)
            in
            [ (k, v h.Budget.h_consumed); (k ^ ".limit", v h.h_limit) ])
          headroom)

(* Oldest first: slot order is seq mod capacity, so sorting the live
   slots by sequence number recovers emission order whatever the wrap
   position is. *)
let ring_events_locked st =
  Array.to_list st.ring
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> Int.compare a.e_seq b.e_seq)

let ring_events () =
  Mutex.protect lock (fun () ->
      match !state with None -> [] | Some st -> ring_events_locked st)

(* Per-run scoping of the flight recorder: the journal is process-global
   and the ring would otherwise persist across analyses in one process —
   a stage crash in run N would dump run N-1's breadcrumbs into its
   flight record.  Clearing drops the slots only; the sequence counter
   keeps running so event ordering stays a process-wide total order. *)
let clear_ring () =
  Mutex.protect lock (fun () ->
      match !state with
      | None -> ()
      | Some st -> Array.fill st.ring 0 (Array.length st.ring) None)

let ring_capacity () =
  Mutex.protect lock (fun () ->
      match !state with None -> 0 | Some st -> Array.length st.ring)

let flight_dump ~reason () =
  Mutex.protect lock (fun () ->
      match !state with
      | None -> []
      | Some st ->
          let evs = ring_events_locked st in
          let lines = List.map event_to_json evs in
          (match st.sink with
          | None -> ()
          | Some oc ->
              (* one self-contained record, past the threshold: the
                 flight recorder exists precisely for abnormal ends *)
              let buf = Buffer.create 1024 in
              Printf.bprintf buf
                "{\"event\":\"flight_recorder\",\"ts\":%s,\"reason\":"
                (Obs_json.float (st.clock () -. st.t0));
              Obs_json.escape_into buf reason;
              Buffer.add_string buf ",\"events\":[";
              List.iteri
                (fun i line ->
                  if i > 0 then Buffer.add_char buf ',';
                  Buffer.add_string buf line)
                lines;
              Buffer.add_string buf "]}";
              output_string oc (Buffer.contents buf);
              output_char oc '\n';
              flush oc);
          lines)
