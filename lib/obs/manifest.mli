(** Digest-addressed run manifests.

    One JSON record per analysis run, addressed by a key derived from
    everything that determines the run's result: the program digest,
    the canonical options fingerprint, the memory model, the analyzer
    build and the manifest format version.  Two runs with the same key computed the
    same analysis, so the key is exactly what a result cache (the
    planned [serve] daemon) looks up before re-analyzing.

    This module is deliberately string-typed: it sits in [lib/obs],
    below the language and semantics libraries, so callers (the
    pipeline, the CLI) render their digests and fingerprints and pass
    them down. *)

val format_version : int
(** Bumped whenever the manifest schema or the key derivation changes;
    part of the key, so caches never serve records across versions. *)

val fnv1a64 : string -> int64
(** FNV-1a, 64-bit — the key hash.  Stable across processes and OCaml
    versions (pure arithmetic on the bytes). *)

val analyzer : unit -> string
(** The hex digest of the running executable ([Digest.file
    Sys.executable_name]; [""] when it cannot be read), computed once
    per process, on first use: a report depends on the build that
    wrote it, so a cache must not serve it to another build. *)

val key :
  analyzer:string ->
  program_digest:string ->
  options_fingerprint:string ->
  memory_model:string ->
  string
(** The 16-hex-digit run key: [fnv1a64] over the NUL-separated
    components plus {!format_version}.  [analyzer] is {!analyzer} but in
    tests. *)

type t = {
  mf_key : string;  (** {!key} of the components below *)
  mf_format_version : int;
  mf_program_digest : string;
  mf_options_fingerprint : string;
  mf_memory_model : string;
  mf_analyzer : string;  (** the analyzer build ({!analyzer}) *)
  mf_status : string;  (** [Budget.status_to_string] of the run *)
  mf_exit_code : int;
  mf_elapsed_s : float;
  mf_metrics : string option;
      (** metrics snapshot as raw JSON ([Metrics.to_json]), when
          telemetry was enabled *)
  mf_chaos : string option;  (** canonical installed chaos spec *)
  mf_checkpoint : string option;  (** checkpoint path, when one was used *)
}

val make :
  ?analyzer:string ->
  program_digest:string ->
  options_fingerprint:string ->
  memory_model:string ->
  status:string ->
  exit_code:int ->
  elapsed_s:float ->
  ?metrics:string ->
  ?chaos:string ->
  ?checkpoint:string ->
  unit ->
  t
(** Computes the key from the identity components; [analyzer]
    defaults to {!analyzer}[ ()]. *)

val to_json : t -> string
(** One JSON object; absent provenance fields are [null]. *)

val write : t -> string -> unit
(** [write m path] writes {!to_json} plus a newline to [path],
    atomically ({!Atomic_io.write_string}): a crash mid-write leaves
    the previous manifest (or nothing), never a torn record a restarted
    cache would misread. *)
