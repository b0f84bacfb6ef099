(* The benchmark's OCaml side, driven by run.py.  It adds no analysis of
   its own: it only calls the public functions of the libraries.

   perfgen sources
     Reads one program request per line on stdin and prints each program's
     source as one JSON string per line.  Requests:
       gen SEED BRANCHES STMTS   Generator.source
       phil N ROUNDS             Philosophers.program
       named NAME                Corpus.find (figures and protocols)

   perfgen inproc MODE MAX_CONFIGS CACHE_CAP SECONDS < REQUESTS
     Replays serve-protocol request lines in this process and times each
     public function a request passes through; prints one JSON object.
     MODE is [serve] (the daemon's path: Sjson.parse, Pipeline.load_source,
     Pipeline.run_key, Cache.find/store on a replica cache, Report.to_json
     and Serve.handle_line) or [cli] (load_source and Report.to_json only,
     the part of a [coanalyze analyze] run outside its traced stages).
     Stops at the first request boundary after SECONDS. *)

open Cobegin_core
open Cobegin_models
module Json = Cobegin_obs.Obs_json
module Metrics = Cobegin_obs.Metrics
module Sjson = Cobegin_serve.Sjson
module Serve = Cobegin_serve.Serve
module Cache = Cobegin_serve.Cache
module Intern = Cobegin_semantics.Intern

let source_of_request line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "gen"; seed; branches; stmts ] ->
      let cfg =
        {
          Generator.default_cfg with
          num_branches = int_of_string branches;
          stmts_per_branch = int_of_string stmts;
        }
      in
      Generator.source ~cfg ~seed:(int_of_string seed) ()
  | [ "phil"; n; rounds ] ->
      Philosophers.program ~rounds:(int_of_string rounds) (int_of_string n)
  | [ "named"; name ] -> (
      match Corpus.find name with
      | Some src -> src
      | None -> failwith ("unknown model " ^ name))
  | _ -> failwith ("bad request: " ^ line)

let rec read_lines acc =
  match input_line stdin with
  | exception End_of_file -> List.rev acc
  | "" -> read_lines acc
  | line -> read_lines (line :: acc)

let sources () =
  List.iter
    (fun line ->
      print_string (Json.string (source_of_request line));
      print_char '\n')
    (read_lines [])

(* --- in-process pass --- *)

let now = Unix.gettimeofday

(* run [f], add its wall milliseconds to [acc] *)
let timed acc f =
  let t0 = now () in
  let v = f () in
  acc := !acc +. ((now () -. t0) *. 1000.);
  v

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(Array.length a / 2)

let inproc ~serve ~max_configs ~cache_cap ~seconds =
  let defaults = { Pipeline.default_options with Pipeline.max_configs } in
  let daemon =
    Serve.make
      {
        Serve.socket = "unused";
        capacity = cache_cap;
        cache_dir = None;
        pool = 1;
        defaults;
        spans = None;
      }
  in
  let replica = Cache.create ~capacity:cache_cap () in
  let parse_ms = ref 0. and load_ms = ref 0. and run_key_ms = ref 0. in
  let find_ms = ref 0. and store_ms = ref 0. and to_json_ms = ref 0. in
  let report_bytes = ref 0 and requests = ref 0 and hits = ref 0 in
  let mismatches = ref 0 in
  let handle_hit = ref [] and handle_miss = ref [] in
  let deadline = now () +. seconds in
  let one line =
    let req =
      match timed parse_ms (fun () -> Sjson.parse line) with
      | Ok r -> r
      | Error e -> failwith ("bad request line: " ^ e)
    in
    let options =
      match
        Serve.options_of_json ~defaults
          (Option.value ~default:Sjson.Null (Sjson.member "options" req))
      with
      | Ok o -> o
      | Error e -> failwith e
    in
    let source =
      Option.get (Option.bind (Sjson.member "program" req) Sjson.to_string)
    in
    let prog = timed load_ms (fun () -> Pipeline.load_source source) in
    let analyze_and_render () =
      let r = Pipeline.analyze ~options prog in
      let json = timed to_json_ms (fun () -> Report.to_json r) in
      report_bytes := !report_bytes + String.length json;
      (r, json)
    in
    incr requests;
    if serve then begin
      let key = timed run_key_ms (fun () -> Pipeline.run_key options prog) in
      let cached = timed find_ms (fun () -> Cache.find replica key) in
      (* counters follow the daemon's own analysis, not the replica's *)
      Metrics.set_enabled true;
      let t0 = now () in
      let resp, _ = Serve.handle_line daemon line in
      let ms = (now () -. t0) *. 1000. in
      Metrics.set_enabled false;
      let tag_is s =
        let p = Printf.sprintf {|{"ok":true,"cache":"%s"|} s in
        String.length resp >= String.length p
        && String.sub resp 0 (String.length p) = p
      in
      match cached with
      | Some _ ->
          incr hits;
          handle_hit := ms :: !handle_hit;
          if not (tag_is "hit") then incr mismatches
      | None ->
          handle_miss := ms :: !handle_miss;
          if not (tag_is "miss") then incr mismatches;
          let r, report = analyze_and_render () in
          timed store_ms (fun () ->
              Cache.store replica key
                { Cache.exit_code = Report.report_exit_code r; report })
    end
    else ignore (analyze_and_render ())
  in
  let rec loop = function
    | [] -> ()
    | _ when now () > deadline -> ()
    | line :: rest ->
        one line;
        loop rest
  in
  loop (read_lines []);
  Printf.printf
    {|{"requests":%d,"hits":%d,"mismatches":%d,"parse_ms":%s,"load_ms":%s,"run_key_ms":%s,"find_ms":%s,"store_ms":%s,"to_json_ms":%s,"report_bytes":%d,"handle_hit_ms_p50":%s,"handle_miss_ms_p50":%s,"distinct_stores":%d,"metrics":%s}|}
    !requests !hits !mismatches (Json.float !parse_ms) (Json.float !load_ms)
    (Json.float !run_key_ms) (Json.float !find_ms) (Json.float !store_ms)
    (Json.float !to_json_ms) !report_bytes
    (Json.float (median !handle_hit))
    (Json.float (median !handle_miss))
    (if serve then Intern.distinct_stores (Intern.global ()) else 0)
    (Metrics.to_json (Metrics.snapshot ()));
  print_newline ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "sources" ] -> sources ()
  | [ _; "inproc"; mode; max_configs; cache_cap; seconds ]
    when mode = "serve" || mode = "cli" ->
      inproc ~serve:(mode = "serve")
        ~max_configs:(int_of_string max_configs)
        ~cache_cap:(int_of_string cache_cap)
        ~seconds:(float_of_string seconds)
  | _ ->
      prerr_endline
        "usage: perfgen sources | perfgen inproc serve|cli MAX_CONFIGS \
         CACHE_CAP SECONDS";
      exit 2
