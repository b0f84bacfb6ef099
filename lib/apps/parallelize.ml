(* Parallelization support (paper section 7, Example 15 / Figure 8;
   Shasha–Snir [SS88] extended to procedure calls).

   Input: a program whose entry has one top-level cobegin of straight-line
   *segments* (possibly containing calls — the extension the paper makes).
   Using the dependence analysis, we build the conflict graph between
   statements of different segments and

     (a) report the conflicting pairs,
     (b) compute the program arcs that must be kept as *delays* to
         preserve sequential consistency: the arcs lying on critical
         (mixed) cycles of P ∪ C [SS88] — the remaining arcs may be
         reordered or executed in parallel,
     (c) report cross-segment statement pairs with no dependence at all:
         candidates for further parallelization. *)

open Cobegin_lang
open Cobegin_analysis

type segment = { seg_index : int; stmts : int list (* labels in order *) }

type arc = { from_stmt : int; to_stmt : int }

type report = {
  segments : segment list;
  conflicts : (int * int) list; (* cross-segment conflicting label pairs *)
  intra_conflicts : (int * int) list;
      (* data-dependent pairs within one segment: they forbid splitting *)
  delays : arc list; (* program arcs that must be enforced *)
  reorderable : arc list; (* program arcs free to be relaxed *)
  parallelizable : (int * int) list; (* independent cross-segment pairs *)
}

(* Extract the segments of the entry procedure's unique cobegin.  Only
   the top-level statements of each branch are segment members. *)
let segments_of (prog : Ast.program) : segment list =
  let entry = Ast.entry_proc prog in
  let found = ref None in
  ignore
    (Ast.fold_stmt
       (fun () s ->
         match s.Ast.kind with
         | Ast.Scobegin bs when !found = None -> found := Some bs
         | _ -> ())
       () entry.Ast.body);
  match !found with
  | None -> []
  | Some bs ->
      List.mapi
        (fun i b ->
          let stmts =
            match b.Ast.kind with
            | Ast.Sblock ss -> List.map (fun (s : Ast.stmt) -> s.Ast.label) ss
            | _ -> [ b.Ast.label ]
          in
          { seg_index = i; stmts })
        bs

(* Program arcs: consecutive statements within a segment. *)
let program_arcs segs =
  List.concat_map
    (fun seg ->
      let rec arcs = function
        | a :: (b :: _ as rest) -> { from_stmt = a; to_stmt = b } :: arcs rest
        | _ -> []
      in
      arcs seg.stmts)
    segs

(* Critical cycles: simple cycles mixing program arcs (directed) and
   conflict edges (undirected) that use at least two conflict edges and
   at least one program arc — the cycles of [SS88] whose program arcs
   must be enforced with delays.  Statement counts at this level are tiny,
   so plain DFS enumeration suffices. *)
let critical_cycle_arcs segs (conflicts : (int * int) list) : arc list =
  let p_arcs = program_arcs segs in
  let succs_p l =
    List.filter_map
      (fun a -> if a.from_stmt = l then Some a.to_stmt else None)
      p_arcs
  in
  let succs_c l =
    List.concat_map
      (fun (x, y) -> if x = l then [ y ] else if y = l then [ x ] else [])
      conflicts
  in
  let on_cycle : (arc, unit) Hashtbl.t = Hashtbl.create 16 in
  let record edges =
    List.iter
      (fun (f, t, kind) ->
        if kind = `P then Hashtbl.replace on_cycle { from_stmt = f; to_stmt = t } ())
      edges
  in
  let all_stmts = List.concat_map (fun s -> s.stmts) segs in
  (* DFS over nodes; [edges] is the reversed path of (from, to, kind). *)
  let rec dfs start current edges visited =
    if List.length edges <= 10 then begin
      let consider kind next =
        let c_count =
          List.length (List.filter (fun (_, _, k) -> k = `C) edges)
          + if kind = `C then 1 else 0
        in
        let p_count =
          List.length (List.filter (fun (_, _, k) -> k = `P) edges)
          + if kind = `P then 1 else 0
        in
        if next = start then begin
          if c_count >= 2 && p_count >= 1 then
            record ((current, next, kind) :: edges)
        end
        else if not (List.mem next visited) then
          dfs start next ((current, next, kind) :: edges) (next :: visited)
      in
      List.iter (consider `P) (succs_p current);
      List.iter (consider `C) (succs_c current)
    end
  in
  List.iter (fun l -> dfs l l [] [ l ]) all_stmts;
  Hashtbl.fold (fun a () acc -> a :: acc) on_cycle [] |> List.sort compare

(* Attribute an access to the segment statement responsible for it:
   its own label when it sits inside a segment statement (including
   nested atomic blocks, conditionals and loops — [owner_map] maps every
   descendant label up to its top-level segment statement), otherwise
   the site of the call frame (in its procedure string) that belongs to
   a segment — the paper's use of procedure strings to lift heap
   accesses inside callees back to the calls of Example 15. *)
let owner_map (prog : Ast.program) segs : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let seg_stmts = List.concat_map (fun s -> s.stmts) segs in
  List.iter
    (fun top_label ->
      match Ast.stmt_at prog top_label with
      | None -> ()
      | Some top ->
          ignore
            (Ast.fold_stmt
               (fun () s -> Hashtbl.replace tbl s.Ast.label top_label)
               () top))
    seg_stmts;
  tbl

let attribute ~owners segs (a : Event.access) : int option =
  ignore segs;
  match Hashtbl.find_opt owners a.Event.label with
  | Some top -> Some top
  | None ->
      List.find_map
        (function
          | Pstring.Fcall { site; _ } -> Hashtbl.find_opt owners site
          | _ -> None)
        (Pstring.frames a.Event.pstr)

(* Cross-segment conflicts at segment-statement granularity. *)
let segment_conflicts ?owners ?(same_segment = false) prog segs
    (log : Event.log) : (int * int) list =
  let owners =
    match owners with Some o -> o | None -> owner_map prog segs
  in
  let seg_of l =
    let rec go = function
      | [] -> None
      | s :: rest -> if List.mem l s.stmts then Some s.seg_index else go rest
    in
    go segs
  in
  let conflicts = ref [] in
  let accs = Array.of_list log.Event.accesses in
  let n = Array.length accs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a1 = accs.(i) and a2 = accs.(j) in
      if
        Event.equal_obj a1.Event.obj a2.Event.obj
        && (a1.Event.kind = Event.Write || a2.Event.kind = Event.Write)
        && (same_segment
           || Event.may_happen_in_parallel log a1.Event.pstr a2.Event.pstr)
      then
        match (attribute ~owners segs a1, attribute ~owners segs a2) with
        | Some l1, Some l2 when l1 <> l2 -> (
            match (seg_of l1, seg_of l2) with
            | Some g1, Some g2 when (if same_segment then g1 = g2 else g1 <> g2)
              ->
                conflicts := (min l1 l2, max l1 l2) :: !conflicts
            | _ -> ())
        | _ -> ()
    done
  done;
  List.sort_uniq compare !conflicts

(* Full report from an instrumentation log. *)
let analyze (prog : Ast.program) (log : Event.log) : report =
  let segs = segments_of prog in
  let cross_pairs =
    List.concat_map
      (fun s1 ->
        List.concat_map
          (fun s2 ->
            if s1.seg_index < s2.seg_index then
              List.concat_map
                (fun l1 -> List.map (fun l2 -> (min l1 l2, max l1 l2)) s2.stmts)
                s1.stmts
            else [])
          segs)
      segs
  in
  let owners = owner_map prog segs in
  let conflicts = segment_conflicts ~owners prog segs log in
  let intra_conflicts =
    segment_conflicts ~owners ~same_segment:true prog segs log
  in
  let delays = critical_cycle_arcs segs conflicts in
  let reorderable =
    List.filter (fun a -> not (List.mem a delays)) (program_arcs segs)
  in
  let parallelizable =
    List.filter (fun pr -> not (List.mem pr conflicts)) cross_pairs
  in
  {
    segments = segs;
    conflicts;
    intra_conflicts;
    delays;
    reorderable;
    parallelizable;
  }

let pp_pair ppf (a, b) = Format.fprintf ppf "(s%d, s%d)" a b
let pp_arc ppf a = Format.fprintf ppf "s%d → s%d" a.from_stmt a.to_stmt

let pp_report ppf r =
  let pl pp_elt = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_elt in
  Format.fprintf ppf
    "@[<v>segments: %d@ conflicting pairs: @[%a@]@ delays (must keep): @[%a@]@ \
     reorderable arcs: @[%a@]@ parallelizable pairs: @[%a@]@]"
    (List.length r.segments) (pl pp_pair) r.conflicts (pl pp_arc) r.delays
    (pl pp_arc) r.reorderable (pl pp_pair) r.parallelizable

(* --- applying the transformation (paper section 7) ---

   Split every segment into maximal runs not crossed by a delay arc and
   turn each run into its own cobegin branch: runs with no enforced
   order may execute in parallel [SS88].  Statements are reused as-is
   (labels preserved), so exploring the original and the transformed
   program yields directly comparable final stores. *)

let split_segment ?(intra = []) access (delays : arc list)
    (stmts : Ast.stmt list) : Ast.stmt list list =
  let delayed a b =
    List.exists (fun d -> d.from_stmt = a && d.to_stmt = b) delays
  in
  (* a boundary is splittable only when no later statement uses a name
     declared earlier in the segment: branches of the rewritten cobegin
     only share the scope at the cobegin itself *)
  let declared (s : Ast.stmt) =
    Ast.fold_stmt
      (fun acc s' ->
        match s'.Ast.kind with
        | Ast.Sdecl (x, _) -> Ast.StringSet.add x acc
        | _ -> acc)
      Ast.StringSet.empty s
  in
  let uses (s : Ast.stmt) =
    let sum = Access.summary access s in
    Ast.StringSet.union sum.Access.rvars sum.Access.wvars
  in
  let glued prefix suffix =
    (* (a) scoping: a later run must not use a name declared earlier *)
    let decls =
      List.fold_left
        (fun acc s -> Ast.StringSet.union acc (declared s))
        Ast.StringSet.empty prefix
    in
    let used =
      List.fold_left
        (fun acc s -> Ast.StringSet.union acc (uses s))
        Ast.StringSet.empty suffix
    in
    (not (Ast.StringSet.is_empty (Ast.StringSet.inter decls used)))
    ||
    (* (b) intra-segment data dependence, from the precise access log:
       unlike the memory-system reorderings of [SS88], turning two runs
       into parallel branches also requires data independence *)
    List.exists
      (fun (p : Ast.stmt) ->
        List.exists
          (fun (q : Ast.stmt) ->
            let a = min p.Ast.label q.Ast.label
            and b = max p.Ast.label q.Ast.label in
            List.mem (a, b) intra)
          suffix)
      prefix
  in
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | s :: rest -> (
        match current with
        | [] -> go [ s ] acc rest
        | prev :: _ ->
            if
              delayed prev.Ast.label s.Ast.label
              || glued (List.rev current) (s :: rest)
            then go (s :: current) acc rest
            else go [ s ] (List.rev current :: acc) rest)
  in
  match stmts with [] -> [] | _ -> go [] [] stmts

(* The branch blocks built are numbered above the program's largest
   label, as Coarsen numbers its atomic blocks: labels stay unique
   (process identity keys statements by label) and the result is a
   function of the program and the report alone. *)
let apply (prog : Ast.program) (r : report) : Ast.program =
  let access = Access.of_program prog in
  let next = ref (List.fold_left max 0 (Ast.labels prog)) in
  let block run =
    incr next;
    { Ast.label = !next; kind = Ast.Sblock run }
  in
  let rewrite_cobegin (bs : Ast.stmt list) : Ast.stmt list =
    List.concat_map
      (fun (b : Ast.stmt) ->
        let stmts =
          match b.Ast.kind with Ast.Sblock ss -> ss | _ -> [ b ]
        in
        List.map block
          (split_segment ~intra:r.intra_conflicts access r.delays stmts))
      bs
  in
  let seen_first = ref false in
  let rec go (s : Ast.stmt) : Ast.stmt =
    match s.Ast.kind with
    | Ast.Scobegin bs when not !seen_first ->
        seen_first := true;
        { s with Ast.kind = Ast.Scobegin (rewrite_cobegin bs) }
    | Ast.Sblock ss -> { s with Ast.kind = Ast.Sblock (List.map go ss) }
    | Ast.Sif (c, a, b) -> { s with Ast.kind = Ast.Sif (c, go a, go b) }
    | Ast.Swhile (c, b) -> { s with Ast.kind = Ast.Swhile (c, go b) }
    | _ -> s
  in
  {
    Ast.procs =
      List.map
        (fun (p : Ast.proc) ->
          if p.Ast.pname = (Ast.entry_proc prog).Ast.pname then
            { p with Ast.body = go p.Ast.body }
          else p)
        prog.Ast.procs;
  }
