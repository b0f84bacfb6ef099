(* The persistent analysis daemon (see serve.mli).

   One Unix-domain listening socket, a fixed pool of worker domains,
   newline-delimited JSON requests.  The accept loop is a select with a
   short timeout so the stop flag (set by a shutdown request) is
   noticed promptly; client fds flow to the workers through a
   mutex+condition queue, [None] sentinels drain the pool on shutdown.

   Per-request isolation of the process-global observability state —
   the bugfixes this daemon exposed: when the journal is running or a
   span recorder is attached, the reset+analyze section is serialized
   under [scope_lock] and each request starts from [Metrics.reset],
   [Journal.clear_ring] and [Span.reset], so one request's telemetry,
   flight-recorder breadcrumbs and counters never leak into the next
   request's report or crash dump.  With telemetry off (the default)
   requests run fully concurrently.

   Cache policy: only pristine runs are memoized — no stage failures,
   not degraded, an empty recovery ladder, and no fault plan installed
   — so a chaos-disturbed or partially-recovered result can never
   poison the cache. *)

module Journal = Cobegin_obs.Journal
module Metrics = Cobegin_obs.Metrics
module Span = Cobegin_obs.Span
module Obs_json = Cobegin_obs.Obs_json
open Cobegin_core

type config = {
  socket : string;
  capacity : int;
  cache_dir : string option;
  pool : int;
  defaults : Pipeline.options;
  spans : Span.t option;
}

type t = {
  cfg : config;
  cache : Cache.t;
  scope_lock : Mutex.t;
  stop : bool Atomic.t;
  requests : int Atomic.t;
  failures : int Atomic.t;
}

let make cfg =
  (* digest this build once, at set-up: every run key includes it *)
  ignore (Cobegin_obs.Manifest.analyzer ());
  {
    cfg;
    cache = Cache.create ?dir:cfg.cache_dir ~capacity:cfg.capacity ();
    scope_lock = Mutex.create ();
    stop = Atomic.make false;
    requests = Atomic.make 0;
    failures = Atomic.make 0;
  }

(* --- JSON assembly --- *)

let error_response msg =
  Printf.sprintf {|{"ok":false,"error":%s,"exit_code":1}|} (Obs_json.string msg)

(* "report" must stay the LAST field: response_report_raw slices the
   raw report bytes out by position, preserving byte determinism
   without a JSON round-trip. *)
let report_response ~cache_tag ~key ~exit_code ~report =
  Printf.sprintf
    {|{"ok":true,"cache":"%s","key":"%s","exit_code":%d,"report":%s}|}
    cache_tag key exit_code report

(* --- request options: folds over Pipeline.fields --- *)

let options_of_json ~(defaults : Pipeline.options) json =
  let value = function
    | Sjson.Bool b -> Some (Pipeline.Bool b)
    | Sjson.Int i -> Some (Pipeline.Int i)
    | Sjson.Float x -> Some (Pipeline.Float x)
    | Sjson.Str s -> Some (Pipeline.Name s)
    | Sjson.Null | Sjson.List _ | Sjson.Obj _ -> None
  in
  let decode acc (k, v) =
    Result.bind acc (fun o ->
        match
          List.find_opt (fun (f : Pipeline.field) -> f.key = k) Pipeline.fields
        with
        | None -> Error (Printf.sprintf "unknown option %S" k)
        | Some f -> (
            match Option.bind (value v) f.parse with
            | Some set -> Ok (f.lower ~cap:defaults (set o))
            | None -> Error (Printf.sprintf "option %s must be %s" k f.expect)))
  in
  match json with
  | Sjson.Null -> Ok defaults
  | Sjson.Obj fields -> List.fold_left decode (Ok defaults) fields
  | _ -> Error "options must be an object"

(* Floats go out with 17 digits ([Pipeline.string_of_value]), so
   decoding gives the record back. *)
let options_to_json (o : Pipeline.options) =
  let json = function
    | Pipeline.Name s -> Obs_json.string s
    | v -> Pipeline.string_of_value v
  in
  "{"
  ^ String.concat ","
      (List.filter_map
         (fun (f : Pipeline.field) ->
           Option.map
             (fun v -> Obs_json.string f.key ^ ":" ^ json v)
             (f.print o))
         Pipeline.fields)
  ^ "}"

(* --- request handling --- *)

let with_request_scope t f =
  if Journal.enabled () || Option.is_some t.cfg.spans then
    Mutex.protect t.scope_lock (fun () ->
        Metrics.reset ();
        Journal.clear_ring ();
        Option.iter Span.reset t.cfg.spans;
        f ())
  else f ()

let cacheable (r : Pipeline.report) =
  r.stage_failures = []
  && (not r.degraded)
  && r.recovery = []
  && Fault.installed () = None

let handle_analyze t req =
  match Option.map Sjson.to_string (Sjson.member "program" req) with
  | None -> error_response "request needs a \"program\" field"
  | Some None -> error_response "\"program\" must be a string"
  | Some (Some source) -> (
      let opts_json =
        Option.value ~default:Sjson.Null (Sjson.member "options" req)
      in
      match options_of_json ~defaults:t.cfg.defaults opts_json with
      | Error msg -> error_response msg
      | Ok options -> (
          match Pipeline.load_source source with
          | exception e -> error_response (Printexc.to_string e)
          | prog -> (
              let key = Pipeline.run_key options prog in
              match Cache.find t.cache key with
              | Some (e : Cache.entry) ->
                  report_response ~cache_tag:"hit" ~key ~exit_code:e.exit_code
                    ~report:e.report
              | None -> (
                  match
                    with_request_scope t (fun () ->
                        Pipeline.analyze ~options ?spans:t.cfg.spans prog)
                  with
                  | exception e -> error_response (Printexc.to_string e)
                  | r ->
                      let exit_code = Report.report_exit_code r in
                      let report = Report.to_json r in
                      if cacheable r then
                        Cache.store t.cache key { exit_code; report };
                      report_response ~cache_tag:"miss" ~key ~exit_code ~report))))

let is_error resp =
  String.length resp >= 11 && String.sub resp 0 11 = {|{"ok":false|}

let handle_line t line =
  Atomic.incr t.requests;
  let resp, shutdown =
    match Sjson.parse line with
    | Error msg -> (error_response ("bad request JSON: " ^ msg), false)
    | Ok req -> (
        match Option.bind (Sjson.member "op" req) Sjson.to_string with
        | Some "ping" -> ({|{"ok":true,"op":"ping"}|}, false)
        | Some "stats" ->
            let s = Cache.stats t.cache in
            ( Printf.sprintf
                {|{"ok":true,"op":"stats","requests":%d,"failures":%d,"hits":%d,"misses":%d,"entries":%d,"capacity":%d}|}
                (Atomic.get t.requests) (Atomic.get t.failures) s.Cache.hits
                s.Cache.misses s.Cache.entries s.Cache.capacity,
              false )
        | Some "shutdown" -> ({|{"ok":true,"op":"shutdown"}|}, true)
        | Some "analyze" | None -> (handle_analyze t req, false)
        | Some op -> (error_response (Printf.sprintf "unknown op %S" op), false))
  in
  if is_error resp then Atomic.incr t.failures;
  (resp, shutdown)

(* --- the daemon loop --- *)

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        let resp, shutdown = handle_line t line in
        (try
           output_string oc resp;
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ());
        if shutdown then Atomic.set t.stop true else loop ()
  in
  loop ();
  (* close the fd exactly once: closing [oc] closes the descriptor, and
     [ic] must then be abandoned — a second close could hit an fd
     number another domain has already reused *)
  close_out_noerr oc

let rec worker_loop t q lock cond =
  let job =
    Mutex.protect lock (fun () ->
        while Queue.is_empty q do
          Condition.wait cond lock
        done;
        Queue.pop q)
  in
  match job with
  | None -> ()
  | Some fd ->
      serve_connection t fd;
      worker_loop t q lock cond

let run ?(on_listening = ignore) t =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX t.cfg.socket);
  Unix.listen sock 64;
  on_listening ();
  let q = Queue.create () in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let push job =
    Mutex.protect lock (fun () ->
        Queue.push job q;
        Condition.signal cond)
  in
  let pool = max 1 t.cfg.pool in
  let workers =
    List.init pool (fun _ -> Domain.spawn (fun () -> worker_loop t q lock cond))
  in
  while not (Atomic.get t.stop) do
    match Unix.select [ sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept sock with
        | fd, _ -> push (Some fd)
        | exception Unix.Unix_error _ -> ())
  done;
  List.iter (fun _ -> push None) workers;
  List.iter Domain.join workers

(* --- client side --- *)

let analyze_line ?options_json program =
  match options_json with
  | None -> Printf.sprintf {|{"program":%s}|} (Obs_json.string program)
  | Some o ->
      Printf.sprintf {|{"program":%s,"options":%s}|} (Obs_json.string program) o

let request ~socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc line;
    output_char oc '\n';
    flush oc;
    let resp = input_line ic in
    (* one close per fd: [oc] owns it, [ic] is abandoned *)
    close_out_noerr oc;
    ignore ic;
    resp
  with
  | resp -> resp
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let response_report_raw resp =
  let marker = {|,"report":|} in
  let mlen = String.length marker in
  let n = String.length resp in
  let rec find i =
    if i + mlen > n then None
    else if String.sub resp i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when n > 0 && resp.[n - 1] = '}' ->
      Some (String.sub resp (i + mlen) (n - (i + mlen) - 1))
  | _ -> None
