(* Digest-addressed run manifests (see manifest.mli). *)

let format_version = 3

(* FNV-1a 64-bit: offset basis then xor-multiply per byte.  Int64
   arithmetic so the result is identical on every platform. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

(* The hex digest of the running executable, read on first use.  Two
   domains may both read it first; they compute the same string. *)
let running = Atomic.make None

let analyzer () =
  match Atomic.get running with
  | Some d -> d
  | None ->
      let d =
        try Digest.to_hex (Digest.file Sys.executable_name)
        with Sys_error _ -> ""
      in
      Atomic.set running (Some d);
      d

let key ~analyzer ~program_digest ~options_fingerprint ~memory_model =
  Printf.sprintf "%016Lx"
    (fnv1a64
       (String.concat "\x00"
          [
            program_digest;
            options_fingerprint;
            memory_model;
            analyzer;
            string_of_int format_version;
          ]))

type t = {
  mf_key : string;
  mf_format_version : int;
  mf_program_digest : string;
  mf_options_fingerprint : string;
  mf_memory_model : string;
  mf_analyzer : string;
  mf_status : string;
  mf_exit_code : int;
  mf_elapsed_s : float;
  mf_metrics : string option;
  mf_chaos : string option;
  mf_checkpoint : string option;
}

let make ?(analyzer = analyzer ()) ~program_digest ~options_fingerprint
    ~memory_model ~status ~exit_code ~elapsed_s ?metrics ?chaos ?checkpoint ()
    =
  {
    mf_key = key ~analyzer ~program_digest ~options_fingerprint ~memory_model;
    mf_format_version = format_version;
    mf_program_digest = program_digest;
    mf_options_fingerprint = options_fingerprint;
    mf_memory_model = memory_model;
    mf_analyzer = analyzer;
    mf_status = status;
    mf_exit_code = exit_code;
    mf_elapsed_s = elapsed_s;
    mf_metrics = metrics;
    mf_chaos = chaos;
    mf_checkpoint = checkpoint;
  }

let to_json m =
  let buf = Buffer.create 512 in
  let field ?(first = false) name add =
    if not first then Buffer.add_char buf ',';
    Obs_json.escape_into buf name;
    Buffer.add_char buf ':';
    add ()
  in
  let str s () = Obs_json.escape_into buf s in
  let opt_str o () =
    match o with
    | None -> Buffer.add_string buf "null"
    | Some s -> Obs_json.escape_into buf s
  in
  Buffer.add_char buf '{';
  field ~first:true "key" (str m.mf_key);
  field "format_version" (fun () ->
      Buffer.add_string buf (string_of_int m.mf_format_version));
  field "program_digest" (str m.mf_program_digest);
  field "options_fingerprint" (str m.mf_options_fingerprint);
  field "memory_model" (str m.mf_memory_model);
  field "analyzer" (str m.mf_analyzer);
  field "status" (str m.mf_status);
  field "exit_code" (fun () ->
      Buffer.add_string buf (string_of_int m.mf_exit_code));
  field "elapsed_s" (fun () ->
      Buffer.add_string buf (Obs_json.float m.mf_elapsed_s));
  (* metrics is raw, already-rendered JSON, embedded as-is *)
  field "metrics" (fun () ->
      Buffer.add_string buf (Option.value m.mf_metrics ~default:"null"));
  field "chaos" (opt_str m.mf_chaos);
  field "checkpoint" (opt_str m.mf_checkpoint);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Atomic (tmp+rename): a crash mid-write must never leave a torn,
   unparseable manifest behind — a restarted result cache would read it
   as garbage.  Same discipline as checkpoints and cache entries. *)
let write m path = Atomic_io.write_string ~path (to_json m ^ "\n")
