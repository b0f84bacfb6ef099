(* Recursive-descent parser.  Grammar sketch:

     program  := proc*
     proc     := "proc" IDENT "(" [IDENT ("," IDENT)*] ")" block
     block    := "{" stmt* "}"
     stmt     := "var" IDENT "=" rhs ";"
               | "skip" ";" | "return" [expr] ";"
               | "if" "(" expr ")" block ["else" (block | if-stmt)]
               | "while" "(" expr ")" block
               | "cobegin" block+ "coend" [";"]
               | "atomic" block
               | "await" "(" expr ")" ";"
               | "lock" "(" IDENT ")" ";" | "unlock" "(" IDENT ")" ";"
               | "assert" "(" expr ")" ";" | "free" "(" expr ")" ";"
               | IDENT "(" args ")" ";"                      direct call
               | "(" expr ")" "(" args ")" ";"               indirect call
               | lvalue "=" rhs ";"
     rhs      := "malloc" "(" expr ")"
               | callee "(" args ")"        when callee is IDENT or (expr)
               | expr
     lvalue   := IDENT | "*" unary
     expr     := usual precedence: or < and < comparisons < additive
                 < multiplicative < unary < primary

   Calls are statements, never sub-expressions: one statement is one
   atomic action (plus procedure entry/exit movements). *)

open Ast

exception Error of string * Lexer.pos

type state = { mutable toks : Lexer.lexed list; mutable next_label : int }

let fresh st =
  st.next_label <- st.next_label + 1;
  st.next_label

let mk st kind = { label = fresh st; kind }

let peek st =
  match st.toks with [] -> Lexer.EOF | l :: _ -> l.Lexer.tok

let peek2 st =
  match st.toks with
  | _ :: l :: _ -> l.Lexer.tok
  | _ -> Lexer.EOF

let pos st =
  match st.toks with
  | [] -> { Lexer.line = 0; col = 0 }
  | l :: _ -> l.Lexer.pos

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail st msg = raise (Error (msg, pos st))

let expect_punct st s =
  match peek st with
  | Lexer.PUNCT p when p = s -> advance st
  | t -> fail st (Format.asprintf "expected '%s', found %a" s Lexer.pp_token t)

let expect_kw st s =
  match peek st with
  | Lexer.KW k when k = s -> advance st
  | t -> fail st (Format.asprintf "expected '%s', found %a" s Lexer.pp_token t)

let expect_ident st =
  match peek st with
  | Lexer.IDENT x ->
      advance st;
      x
  | t -> fail st (Format.asprintf "expected identifier, found %a" Lexer.pp_token t)

(* --- expressions --- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  match peek st with
  | Lexer.PUNCT "||" ->
      advance st;
      Ebinop (Or, lhs, parse_or st)
  | _ -> lhs

and parse_and st =
  let lhs = parse_cmp st in
  match peek st with
  | Lexer.PUNCT "&&" ->
      advance st;
      Ebinop (And, lhs, parse_and st)
  | _ -> lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek st with
    | Lexer.PUNCT "==" -> Some Eq
    | Lexer.PUNCT "!=" -> Some Ne
    | Lexer.PUNCT "<" -> Some Lt
    | Lexer.PUNCT "<=" -> Some Le
    | Lexer.PUNCT ">" -> Some Gt
    | Lexer.PUNCT ">=" -> Some Ge
    | _ -> None
  in
  match op with
  | Some op ->
      advance st;
      Ebinop (op, lhs, parse_add st)
  | None -> lhs

and parse_add st =
  let rec loop lhs =
    match peek st with
    | Lexer.PUNCT "+" ->
        advance st;
        loop (Ebinop (Add, lhs, parse_mul st))
    | Lexer.PUNCT "-" ->
        advance st;
        loop (Ebinop (Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match peek st with
    | Lexer.PUNCT "*" ->
        advance st;
        loop (Ebinop (Mul, lhs, parse_unary st))
    | Lexer.PUNCT "/" ->
        advance st;
        loop (Ebinop (Div, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.PUNCT "!" ->
      advance st;
      Eunop (Not, parse_unary st)
  | Lexer.PUNCT "-" ->
      advance st;
      Eunop (Neg, parse_unary st)
  | Lexer.PUNCT "*" ->
      advance st;
      Ederef (parse_unary st)
  | Lexer.PUNCT "&" ->
      advance st;
      Eaddr (expect_ident st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.INT n ->
      advance st;
      Eint n
  | Lexer.KW "true" ->
      advance st;
      Ebool true
  | Lexer.KW "false" ->
      advance st;
      Ebool false
  | Lexer.IDENT x ->
      advance st;
      Evar x
  | Lexer.PUNCT "(" ->
      advance st;
      let e = parse_expr st in
      expect_punct st ")";
      e
  | t -> fail st (Format.asprintf "expected expression, found %a" Lexer.pp_token t)

(* --- statements --- *)

let parse_args st =
  expect_punct st "(";
  if peek st = Lexer.PUNCT ")" then begin
    advance st;
    []
  end
  else
    let rec loop acc =
      let e = parse_expr st in
      match peek st with
      | Lexer.PUNCT "," ->
          advance st;
          loop (e :: acc)
      | _ ->
          expect_punct st ")";
          List.rev (e :: acc)
    in
    loop []

(* [parse_stmt] returns a *list* of statements: declarations with complex
   initializers (var x = malloc(..) / var x = f(..)) desugar into a
   declaration followed by the operation, spliced into the enclosing block
   so that the binding scopes over the rest of that block. *)
let rec parse_stmt st : stmt list =
  match peek st with
  | Lexer.KW "skip" ->
      advance st;
      expect_punct st ";";
      [ mk st Sskip ]
  | Lexer.KW "fence" ->
      advance st;
      expect_punct st ";";
      [ mk st Sfence ]
  | Lexer.KW "var" ->
      advance st;
      let x = expect_ident st in
      expect_punct st "=";
      let ss = parse_rhs st (Lvar x) ~decl:(Some x) in
      expect_punct st ";";
      ss
  | Lexer.KW "return" ->
      advance st;
      if peek st = Lexer.PUNCT ";" then begin
        advance st;
        [ mk st (Sreturn None) ]
      end
      else
        let e = parse_expr st in
        expect_punct st ";";
        [ mk st (Sreturn (Some e)) ]
  | Lexer.KW "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let then_b = parse_block st in
      let else_b =
        match peek st with
        | Lexer.KW "else" ->
            advance st;
            if peek st = Lexer.KW "if" then
              match parse_stmt st with
              | [ s ] -> s
              | ss -> mk st (Sblock ss)
            else parse_block st
        | _ -> mk st Sskip
      in
      [ mk st (Sif (c, then_b, else_b)) ]
  | Lexer.KW "while" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let body = parse_block st in
      [ mk st (Swhile (c, body)) ]
  | Lexer.KW "cobegin" ->
      advance st;
      let rec branches acc =
        if peek st = Lexer.PUNCT "{" then branches (parse_block st :: acc)
        else List.rev acc
      in
      let bs = branches [] in
      if bs = [] then fail st "cobegin needs at least one branch";
      expect_kw st "coend";
      if peek st = Lexer.PUNCT ";" then advance st;
      [ mk st (Scobegin bs) ]
  | Lexer.KW "atomic" ->
      let p = pos st in
      advance st;
      let b = parse_block st in
      let ss = match b.kind with Sblock ss -> ss | _ -> [ b ] in
      List.iter
        (fun (s : stmt) ->
          match s.kind with
          | Sskip | Sdecl _ | Sassign _ | Sassert _ -> ()
          | _ ->
              raise
                (Error
                   ( "atomic blocks may contain only simple statements",
                     p )))
        ss;
      [ mk st (Satomic ss) ]
  | Lexer.KW "await" ->
      advance st;
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ")";
      expect_punct st ";";
      [ mk st (Sawait e) ]
  | Lexer.KW "lock" ->
      advance st;
      expect_punct st "(";
      let x = expect_ident st in
      expect_punct st ")";
      expect_punct st ";";
      [ mk st (Sacquire x) ]
  | Lexer.KW "unlock" ->
      advance st;
      expect_punct st "(";
      let x = expect_ident st in
      expect_punct st ")";
      expect_punct st ";";
      [ mk st (Srelease x) ]
  | Lexer.KW "assert" ->
      advance st;
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ")";
      expect_punct st ";";
      [ mk st (Sassert e) ]
  | Lexer.KW "free" ->
      advance st;
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ")";
      expect_punct st ";";
      [ mk st (Sfree e) ]
  | Lexer.PUNCT "{" -> [ parse_block st ]
  | Lexer.IDENT f when peek2 st = Lexer.PUNCT "(" ->
      (* direct call without result *)
      advance st;
      let args = parse_args st in
      expect_punct st ";";
      [ mk st (Scall (None, Evar f, args)) ]
  | _ ->
      (* lvalue "=" rhs ";"  or  "(" expr ")" "(" args ")" ";" *)
      let target = parse_unary st in
      if peek st = Lexer.PUNCT "(" then begin
        (* indirect call without result: callee expression then args *)
        let args = parse_args st in
        expect_punct st ";";
        [ mk st (Scall (None, target, args)) ]
      end
      else begin
        let lv =
          match target with
          | Evar x -> Lvar x
          | Ederef e -> Lderef e
          | _ -> fail st "left-hand side must be a variable or a dereference"
        in
        expect_punct st "=";
        let ss = parse_rhs st lv ~decl:None in
        expect_punct st ";";
        ss
      end

(* Right-hand side of [lv =] or [var x =]: malloc, call, or expression. *)
and parse_rhs st dest ~decl : stmt list =
  match peek st with
  | Lexer.KW "malloc" ->
      advance st;
      expect_punct st "(";
      let e = parse_expr st in
      expect_punct st ")";
      wrap_decl st ~decl (Smalloc (dest, e))
  | Lexer.IDENT f when peek2 st = Lexer.PUNCT "(" ->
      advance st;
      let args = parse_args st in
      wrap_decl st ~decl (Scall (Some dest, Evar f, args))
  | _ ->
      let e = parse_expr st in
      if peek st = Lexer.PUNCT "(" then
        (* indirect call with result through a parenthesized callee expr *)
        let args = parse_args st in
        wrap_decl st ~decl (Scall (Some dest, e, args))
      else wrap_decl st ~decl (Sassign (dest, e))

(* [var x = e] is a single Sdecl; [var x = malloc(..)] and
   [var x = f(..)] become a declaration followed by the operation, spliced
   into the enclosing block (so the binding scopes over the block rest). *)
and wrap_decl st ~decl kind : stmt list =
  match (decl, kind) with
  | None, _ -> [ mk st kind ]
  | Some x, Sassign (_, e) -> [ mk st (Sdecl (x, e)) ]
  | Some x, (Smalloc _ | Scall _) ->
      [ mk st (Sdecl (x, Eint 0)); mk st kind ]
  | Some _, _ -> assert false

and parse_block st : stmt =
  expect_punct st "{";
  let rec loop acc =
    if peek st = Lexer.PUNCT "}" then begin
      advance st;
      List.concat (List.rev acc)
    end
    else loop (parse_stmt st :: acc)
  in
  mk st (Sblock (loop []))

let parse_proc st : proc =
  expect_kw st "proc";
  let pname = expect_ident st in
  expect_punct st "(";
  let params =
    if peek st = Lexer.PUNCT ")" then begin
      advance st;
      []
    end
    else
      let rec loop acc =
        let x = expect_ident st in
        match peek st with
        | Lexer.PUNCT "," ->
            advance st;
            loop (x :: acc)
        | _ ->
            expect_punct st ")";
            List.rev (x :: acc)
      in
      loop []
  in
  let body = parse_block st in
  { pname; params; body }

let parse_program_tokens st : program =
  let rec loop acc =
    match peek st with
    | Lexer.EOF -> { procs = List.rev acc }
    | Lexer.KW "proc" -> loop (parse_proc st :: acc)
    | t ->
        fail st (Format.asprintf "expected 'proc', found %a" Lexer.pp_token t)
  in
  loop []

let parse_string src : program =
  let toks = Lexer.tokenize src in
  let st = { toks; next_label = 0 } in
  parse_program_tokens st

let pp_error ppf (msg, (p : Lexer.pos)) =
  Format.fprintf ppf "parse error at line %d, column %d: %s" p.line p.col msg
