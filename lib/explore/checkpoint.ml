(* Checkpointed state-space generation (see checkpoint.mli).

   The engine is Space.generate with full expansion and a boundary hook
   that saves the kernel state — the determinism contract depends on
   it: a pop-count cadence picks the same save points on every run, and
   a resumed run replays the exact suffix of an uninterrupted one, so
   the final counts are identical.

   On-disk format: a magic string, then a Marshal'd header (format
   version + full-width hash of the marshaled program), then the
   Marshal'd kernel state.  The state owns the run's interner, whose
   pools are plain data, so one Marshal call saves the pools with
   their ids next to the visited set keyed by those ids, and the
   frontier's configurations still share their components with the
   pools when they are read back: a resumed run needs no re-interning
   and no digest remap.

   Writes go to a temp file renamed into place, so a crash mid-write
   leaves the previous checkpoint intact, never a torn file. *)

open Cobegin_semantics
module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

let m_saves = Metrics.counter "checkpoint.saves"
let m_restores = Metrics.counter "checkpoint.restores"
let h_save_ms = Metrics.histogram "checkpoint.save_ms"
let h_restore_ms = Metrics.histogram "checkpoint.restore_ms"

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some ("corrupt checkpoint: " ^ msg)
    | _ -> None)

type cadence = { every_configs : int; every_s : float option }

let default_cadence = { every_configs = 4096; every_s = None }

let magic = "COBEGIN-CKPT\n"

(* Version 6: the frontier's entries and the remainder carry their
   configurations' keys, the parents their successors are interned
   from.  Version 5 made the payload the kernel state with its own
   interner, whole pools and ids, and a deduplicated event log.  Version
   4 saved the process-wide pools' entries the visited set used, for
   re-keying on restore, and the remainder of an expansion a
   configuration budget cut short.  Version 3 made the payload the
   kernel state (Space.state) itself.  Version 2 added per-process
   store buffers (TSO/PSO) and bound the memory model into the identity
   hash.  Older files are refused with [Corrupt]. *)
let version = 6

type header = { hd_version : int; hd_program_hash : int }

(* The identity a checkpoint is bound to: resuming under a different
   program — or the same program under a different memory model —
   would silently mix state spaces. *)
let program_hash (ctx : Step.ctx) =
  Cobegin_hash.combine
    (Cobegin_hash.hash_string (Marshal.to_string ctx.Step.prog []))
    (Cobegin_hash.hash_string (Step.model_name ctx.Step.model))

(* What the journal events of a save and a restore report. *)
let progress_fields (st : unit Space.state) =
  [
    ("configurations", Journal.Int (Config.Digest_tbl.length st.Space.visited));
    ("frontier", Journal.Int (Queue.length st.Space.queue));
    ("transitions", Journal.Int st.Space.transitions);
  ]

let save ~path ctx st =
  Fault.hit "checkpoint.save";
  let t0 = Unix.gettimeofday () in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     Marshal.to_channel oc
       { hd_version = version; hd_program_hash = program_hash ctx }
       [];
     Marshal.to_channel oc (st : unit Space.state) [];
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  Metrics.incr m_saves;
  Metrics.observe h_save_ms
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
  if Journal.enabled () then
    Journal.emit "checkpoint.saved"
      (("path", Journal.Str path) :: progress_fields st)

let load ~path ctx : unit Space.state =
  let ic =
    try open_in_bin path
    with Sys_error e -> raise (Corrupt ("cannot open: " ^ e))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m =
        try really_input_string ic (String.length magic)
        with End_of_file -> raise (Corrupt "truncated (no magic)")
      in
      if m <> magic then raise (Corrupt "not a cobegin checkpoint");
      let hd =
        try (Marshal.from_channel ic : header)
        with End_of_file | Failure _ -> raise (Corrupt "truncated header")
      in
      if hd.hd_version <> version then
        raise
          (Corrupt
             (Printf.sprintf "format version %d, this build reads %d"
                hd.hd_version version));
      if hd.hd_program_hash <> program_hash ctx then
        raise (Corrupt "written for a different program");
      try (Marshal.from_channel ic : unit Space.state)
      with End_of_file | Failure _ -> raise (Corrupt "truncated payload"))

let restore ~path ctx =
  let t0 = Unix.gettimeofday () in
  let st = load ~path ctx in
  Metrics.incr m_restores;
  Metrics.observe h_restore_ms
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
  if Journal.enabled () then
    Journal.emit "checkpoint.restored" (progress_fields st);
  st

(* Full expansion with a save every [cadence.every_configs] pops (and
   every [every_s] seconds, when set).  The save is the kernel's
   boundary hook, before the pop it precedes, so "resume from the last
   save" replays whole iterations — never half-fired expansions.  A
   truncated run also saves its final pre-drain state, so it can be
   resumed later with a larger budget; the drain classifies the
   frontier without popping it, and a resumed run re-classifies those
   same configurations itself.  When a configuration budget stopped
   the run in the middle of an expansion, that state carries the
   expansion's remainder, and the resumed run fires it first. *)
let run ?max_configs ?budget ~cadence ~path ctx st : Space.result =
  let since_save = ref 0 in
  let last_save = ref (Unix.gettimeofday ()) in
  let boundary st =
    let time_due =
      match cadence.every_s with
      | Some s -> Unix.gettimeofday () -. !last_save >= s
      | None -> false
    in
    if !since_save >= cadence.every_configs || time_due then begin
      save ~path ctx st;
      since_save := 0;
      last_save := Unix.gettimeofday ()
    end;
    incr since_save
  in
  let r =
    Space.generate ?max_configs ?budget ~boundary ~site:"checkpoint"
      ~admit:Space.no_revisits ~expand:Space.all_actions ctx st
  in
  if not (Budget.is_complete r.Space.status) then save ~path ctx st;
  r

let full ?max_configs ?budget ?(cadence = default_cadence) ~path ctx =
  run ?max_configs ?budget ~cadence ~path ctx (Space.start ctx ())

let resume ?max_configs ?budget ?(cadence = default_cadence) ~path ctx =
  let st = restore ~path ctx in
  (* The caller's budget typically dates from process startup, and its
     deadline is an absolute instant fixed at creation — by the time
     the state above is loaded, part (or all) of a --timeout grant
     would already be spent.  A resumed run gets the full timeout from
     the point the BFS actually restarts. *)
  Option.iter Budget.refresh_deadline budget;
  run ?max_configs ?budget ~cadence ~path ctx st
