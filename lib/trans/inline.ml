(* Procedure inlining.  The paper (footnote 4) notes its analyses behave
   "like taking in-line procedure expansion first and then analyzing the
   results as a whole"; this transform makes that literal, and is used by
   the parallelization application to compare summary-based analysis with
   analysis after expansion.

   A call  [lv =] f(e1..en)  is inlinable when the call graph of
   [Access] resolves it to exactly one procedure f, non-recursive,
   whose body contains either no return or a
   single trailing  return e;.  Locals and parameters are freshened to
   avoid capture.  Inlining iterates bottom-up on the call graph up to
   [depth] rounds. *)

open Cobegin_lang
open Ast

(* Fresh names for one [program] call: numbered from 1 per call, so the
   result is a function of the input alone. *)
let gensym_for_program () =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "%s__i%d" base !n

(* The procedure a call statement invokes, when the call graph resolves
   it to exactly one. *)
let target access (s : stmt) =
  match StringSet.elements (Access.callees access s) with
  | [ f ] -> Some f
  | _ -> None

(* Is [f] (transitively) recursive through calls [target] resolves? *)
let recursive access prog f =
  let next g =
    match find_proc prog g with
    | None -> StringSet.empty
    | Some p ->
        fold_stmt
          (fun acc s ->
            match target access s with
            | Some h -> StringSet.add h acc
            | None -> acc)
          StringSet.empty p.body
  in
  StringSet.mem f (Access.reach_procs next (next f))

(* Split a body into (statements, trailing return expression option);
   None when the body is not inlinable (an inner return). *)
let splittable_body (body : stmt) : (stmt list * expr option) option =
  let ss = match body.kind with Sblock ss -> ss | _ -> [ body ] in
  let rec has_return (s : stmt) =
    match s.kind with
    | Sreturn _ -> true
    | Sblock ss | Scobegin ss | Satomic ss -> List.exists has_return ss
    | Sif (_, a, b) -> has_return a || has_return b
    | Swhile (_, b) -> has_return b
    | _ -> false
  in
  match List.rev ss with
  | { kind = Sreturn e; _ } :: front_rev ->
      let front = List.rev front_rev in
      if List.exists has_return front then None else Some (front, e)
  | _ -> if List.exists has_return ss then None else Some (ss, None)

(* Rename free occurrences according to [ren]. *)
let rename_var ren x = match List.assoc_opt x ren with Some y -> y | None -> x

let rec rename_expr ren = function
  | (Eint _ | Ebool _) as e -> e
  | Evar x -> Evar (rename_var ren x)
  | Eaddr x -> Eaddr (rename_var ren x)
  | Eunop (op, e) -> Eunop (op, rename_expr ren e)
  | Ebinop (op, e1, e2) -> Ebinop (op, rename_expr ren e1, rename_expr ren e2)
  | Ederef e -> Ederef (rename_expr ren e)

(* Rename every bound name of a statement with fresh names; [ren] maps
   in-scope names to their fresh replacements. *)
let rec rename_stmt gensym ren (s : stmt) : (string * string) list * stmt =
  let rex = rename_expr in
  let rlv ren = function
    | Lvar x -> Lvar (rename_var ren x)
    | Lderef e -> Lderef (rex ren e)
  in
  let keep kind = (ren, { s with kind }) in
  match s.kind with
  | Sskip -> keep Sskip
  | Sfence -> keep Sfence
  | Sdecl (x, e) ->
      let x' = gensym x in
      let e' = rex ren e in
      ((x, x') :: ren, { s with kind = Sdecl (x', e') })
  | Sassign (lv, e) -> keep (Sassign (rlv ren lv, rex ren e))
  | Smalloc (lv, e) -> keep (Smalloc (rlv ren lv, rex ren e))
  | Sfree e -> keep (Sfree (rex ren e))
  | Scall (lv, callee, args) ->
      keep (Scall (Option.map (rlv ren) lv, rex ren callee, List.map (rex ren) args))
  | Sreturn e -> keep (Sreturn (Option.map (rex ren) e))
  | Sblock ss ->
      let _, ss' = rename_stmts gensym ren ss in
      keep (Sblock ss')
  | Sif (c, a, b) ->
      keep
        (Sif
           ( rex ren c,
             snd (rename_stmt gensym ren a),
             snd (rename_stmt gensym ren b) ))
  | Swhile (c, b) -> keep (Swhile (rex ren c, snd (rename_stmt gensym ren b)))
  | Scobegin bs ->
      keep (Scobegin (List.map (fun b -> snd (rename_stmt gensym ren b)) bs))
  | Satomic ss ->
      let ren', ss' = rename_stmts gensym ren ss in
      (* declarations inside atomic scope to the enclosing block *)
      (ren', { s with kind = Satomic ss' })
  | Sawait e -> keep (Sawait (rex ren e))
  | Sacquire x -> keep (Sacquire (rename_var ren x))
  | Srelease x -> keep (Srelease (rename_var ren x))
  | Sassert e -> keep (Sassert (rex ren e))

and rename_stmts gensym ren ss =
  let ren, rev =
    List.fold_left
      (fun (ren, acc) s ->
        let ren', s' = rename_stmt gensym ren s in
        (ren', s' :: acc))
      (ren, []) ss
  in
  (ren, List.rev rev)

(* Expand one call site.  Returns None when not inlinable. *)
let expand gensym access prog (lv : lvalue option) f (args : expr list) :
    stmt list option =
  match find_proc prog f with
  | None -> None
  | Some p ->
      if recursive access prog f then None
      else if List.length args <> List.length p.params then None
      else
        match splittable_body p.body with
        | None -> None
        | Some (body_ss, ret) ->
            let ren = List.map (fun x -> (x, gensym x)) p.params in
            let decls =
              List.map2
                (fun (_, x') a -> Ast.mk (Sdecl (x', a)))
                ren args
            in
            let ren', body' = rename_stmts gensym ren body_ss in
            let tail =
              (* destination lvalue belongs to the caller: not renamed *)
              match (lv, ret) with
              | Some lv, Some e -> [ Ast.mk (Sassign (lv, rename_expr ren' e)) ]
              | Some lv, None -> [ Ast.mk (Sassign (lv, Eint 0)) ]
              | None, _ -> []
            in
            (* wrap in a block so callee locals do not leak *)
            Some [ Ast.mk (Sblock (decls @ body' @ tail)) ]

let rec inline_stmt gensym access prog (s : stmt) : stmt list =
  let inline = inline_stmt gensym access prog in
  match (s.kind, target access s) with
  | Scall (lv, _, args), Some f -> (
      match expand gensym access prog lv f args with
      | Some ss -> ss
      | None -> [ s ])
  | Sblock ss, _ -> [ { s with kind = Sblock (List.concat_map inline ss) } ]
  | Scobegin bs, _ ->
      [
        {
          s with
          kind = Scobegin (List.map (fun b -> Ast.block (inline b)) bs);
        };
      ]
  | Sif (c, a, b), _ ->
      [ { s with kind = Sif (c, Ast.block (inline a), Ast.block (inline b)) } ]
  | Swhile (c, b), _ -> [ { s with kind = Swhile (c, Ast.block (inline b)) } ]
  | _ -> [ s ]

(* Inline up to [depth] rounds, then relabel so labels stay unique. *)
let program ?(depth = 3) (prog : program) : program =
  let gensym = gensym_for_program () in
  let step prog =
    let access = Access.of_program prog in
    {
      procs =
        List.map
          (fun p ->
            { p with body = Ast.block (inline_stmt gensym access prog p.body) })
          prog.procs;
    }
  in
  let rec go n prog = if n = 0 then prog else go (n - 1) (step prog) in
  Ast.relabel (go depth prog)
