(* Lexer, parser, pretty-printer, checker and access summaries. *)

open Cobegin_lang
open Helpers

let lexer_tests =
  [
    case "tokenizes operators greedily" (fun () ->
        let toks =
          Lexer.tokenize "a<=b==c&&d" |> List.map (fun l -> l.Lexer.tok)
        in
        check_bool "shape" true
          (toks
          = [
              Lexer.IDENT "a"; Lexer.PUNCT "<="; Lexer.IDENT "b";
              Lexer.PUNCT "=="; Lexer.IDENT "c"; Lexer.PUNCT "&&";
              Lexer.IDENT "d"; Lexer.EOF;
            ]));
    case "skips line and block comments" (fun () ->
        let toks =
          Lexer.tokenize "x // comment\n /* multi \n line */ y"
          |> List.map (fun l -> l.Lexer.tok)
        in
        check_bool "two idents" true
          (toks = [ Lexer.IDENT "x"; Lexer.IDENT "y"; Lexer.EOF ]));
    case "nested block comments" (fun () ->
        let toks =
          Lexer.tokenize "a /* x /* y */ z */ b"
          |> List.map (fun l -> l.Lexer.tok)
        in
        check_bool "two idents" true
          (toks = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ]));
    case "keywords are not identifiers" (fun () ->
        match Lexer.tokenize "while proc" |> List.map (fun l -> l.Lexer.tok) with
        | [ Lexer.KW "while"; Lexer.KW "proc"; Lexer.EOF ] -> ()
        | _ -> Alcotest.fail "bad tokens");
    case "reports position of bad char" (fun () ->
        match Lexer.tokenize "x\n  $" with
        | exception Lexer.Error (_, pos) ->
            check_int "line" 2 pos.Lexer.line;
            check_int "col" 3 pos.Lexer.col
        | _ -> Alcotest.fail "expected lexer error");
  ]

let parses src = match Parser.parse_string src with _ -> true | exception _ -> false

let parser_tests =
  [
    case "parses every built-in example" (fun () ->
        List.iter
          (fun (name, src) ->
            match Parser.parse_string src with
            | p -> check_bool name true (Check.ok (Check.check p))
            | exception Parser.Error (m, _) ->
                Alcotest.fail (name ^ ": " ^ m))
          Cobegin_models.Figures.all_named);
    case "precedence: 1 + 2 * 3" (fun () ->
        let p = Parser.parse_string "proc main() { var x = 1 + 2 * 3; }" in
        match (List.hd p.Ast.procs).Ast.body.Ast.kind with
        | Ast.Sblock [ { kind = Ast.Sdecl (_, e); _ } ] ->
            check_bool "shape" true
              (e
              = Ast.Ebinop
                  ( Ast.Add,
                    Ast.Eint 1,
                    Ast.Ebinop (Ast.Mul, Ast.Eint 2, Ast.Eint 3) ))
        | _ -> Alcotest.fail "unexpected shape");
    case "dangling else binds to nearest if" (fun () ->
        let src =
          "proc main() { var x = 0; if (x == 0) { if (x == 1) { x = 2; } } \
           else { x = 3; } }"
        in
        check_bool "parses" true (parses src));
    case "else if chains" (fun () ->
        check_bool "parses" true
          (parses
             "proc main() { var x = 0; if (x == 0) { x = 1; } else if (x == \
              1) { x = 2; } else { x = 3; } }"));
    case "var with malloc splices into block scope" (fun () ->
        let p =
          Parser.parse_string
            "proc main() { var p = malloc(2); *p = 1; }"
        in
        check_bool "checks" true (Check.ok (Check.check p)));
    case "var with call splices into block scope" (fun () ->
        let p =
          Parser.parse_string
            "proc f() { return 1; } proc main() { var x = f(); x = x + 1; }"
        in
        check_bool "checks" true (Check.ok (Check.check p)));
    case "indirect calls" (fun () ->
        check_bool "statement form" true
          (parses "proc f() { } proc main() { var g = f; (g)(); }");
        check_bool "with result" true
          (parses "proc f() { return 1; } proc main() { var g = f; var x = 0; x = (g)(); }"));
    case "cobegin requires coend" (fun () ->
        check_bool "rejected" false
          (parses "proc main() { cobegin { skip; } }"));
    case "cobegin requires a branch" (fun () ->
        check_bool "rejected" false (parses "proc main() { cobegin coend; }"));
    case "atomic rejects control flow" (fun () ->
        check_bool "rejected" false
          (parses "proc main() { var x = 0; atomic { while (x < 1) { } } }"));
    case "labels are unique" (fun () ->
        let p = parse Cobegin_models.Figures.fig8 in
        let labels = Ast.labels p in
        check_int "no duplicates" (List.length labels)
          (List.length (List.sort_uniq compare labels)));
    case "parse error carries position" (fun () ->
        match Parser.parse_string "proc main() { var = 3; }" with
        | exception Parser.Error (_, pos) ->
            check_bool "line 1" true (pos.Lexer.line = 1)
        | _ -> Alcotest.fail "expected parse error");
  ]

(* Round trip: pretty-printing then reparsing preserves the program
   (compared by its pretty form, which is label-independent). *)
let roundtrip_tests =
  [
    qtest ~count:60 "pretty ∘ parse round-trips generated programs" seed_gen
      (fun seed ->
        let src = Cobegin_models.Generator.source ~seed () in
        let p1 = Parser.parse_string src in
        let printed = Pretty.program_to_string p1 in
        let p2 = Parser.parse_string printed in
        String.equal printed (Pretty.program_to_string p2));
    case "pretty round-trips the paper figures" (fun () ->
        List.iter
          (fun (name, src) ->
            let p1 = Parser.parse_string src in
            let printed = Pretty.program_to_string p1 in
            match Parser.parse_string printed with
            | p2 ->
                check_string name printed (Pretty.program_to_string p2)
            | exception Parser.Error (m, pos) ->
                Alcotest.fail
                  (Format.asprintf "%s: %a@.%s" name Parser.pp_error (m, pos)
                     printed))
          Cobegin_models.Figures.all_named);
    case "pretty round-trips every statement form" (fun () ->
        (* One program exercising each [Ast.kind] constructor — fence
           included — so a printer or parser gap on any form fails
           here rather than depending on generator coverage. *)
        let src =
          {|
proc helper(p) { return p + 1; }
proc main() {
  skip;
  var x = 0;
  x = 1;
  var b = malloc(2);
  *b = 5;
  var y = 0;
  var m = 0;
  y = helper(x);
  helper(y);
  if (x == 1) { y = 2; } else { y = 3; }
  while (y > 0) { y = y - 1; }
  cobegin
    { x = 4; fence; await(x == 4); }
    { lock(m); unlock(m); }
  coend;
  atomic { x = 5; y = 5; }
  assert(x == 5);
  free(b);
}
|}
        in
        let p1 = parse src in
        let printed = Pretty.program_to_string p1 in
        let p2 = Parser.parse_string printed in
        check_string "stable under reprint" printed
          (Pretty.program_to_string p2);
        (* the source really covers the whole statement grammar *)
        let seen = Hashtbl.create 16 in
        let rec walk (s : Ast.stmt) =
          let tag =
            match s.Ast.kind with
            | Ast.Sskip -> "skip"
            | Ast.Sdecl _ -> "decl"
            | Ast.Sassign _ -> "assign"
            | Ast.Smalloc _ -> "malloc"
            | Ast.Sfree _ -> "free"
            | Ast.Scall _ -> "call"
            | Ast.Sreturn _ -> "return"
            | Ast.Sblock _ -> "block"
            | Ast.Sif _ -> "if"
            | Ast.Swhile _ -> "while"
            | Ast.Scobegin _ -> "cobegin"
            | Ast.Satomic _ -> "atomic"
            | Ast.Sawait _ -> "await"
            | Ast.Sacquire _ -> "lock"
            | Ast.Srelease _ -> "unlock"
            | Ast.Sfence -> "fence"
            | Ast.Sassert _ -> "assert"
          in
          Hashtbl.replace seen tag ();
          match s.Ast.kind with
          | Ast.Sblock ss | Ast.Scobegin ss | Ast.Satomic ss ->
              List.iter walk ss
          | Ast.Sif (_, a, b) ->
              walk a;
              walk b
          | Ast.Swhile (_, body) -> walk body
          | _ -> ()
        in
        List.iter (fun (pr : Ast.proc) -> walk pr.Ast.body) p1.Ast.procs;
        check_int "all 17 statement forms present" 17 (Hashtbl.length seen));
  ]

let check_tests =
  let errors src =
    match Parser.parse_string src with
    | p -> List.length (Check.check p).Check.errors
    | exception _ -> -1
  in
  [
    case "undeclared variable" (fun () ->
        check_bool "caught" true (errors "proc main() { x = 1; }" > 0));
    case "out-of-scope after block" (fun () ->
        check_bool "caught" true
          (errors "proc main() { if (true) { var x = 1; } else { } x = 2; }" > 0));
    case "declaration scopes over block remainder" (fun () ->
        check_int "clean" 0 (errors "proc main() { var x = 1; x = x + 1; }"));
    case "params are in scope" (fun () ->
        check_int "clean" 0 (errors "proc f(a, b) { return a + b; }"));
    case "arity mismatch on direct call" (fun () ->
        check_bool "caught" true
          (errors "proc f(a) { } proc main() { f(1, 2); }" > 0));
    case "procedure name as value is fine" (fun () ->
        check_int "clean" 0 (errors "proc f() { } proc main() { var g = f; }"));
    case "duplicate procedures" (fun () ->
        check_bool "caught" true (errors "proc f() { } proc f() { }" > 0));
    case "duplicate parameters" (fun () ->
        check_bool "caught" true (errors "proc f(a, a) { }" > 0));
    case "lock target must be in scope" (fun () ->
        check_bool "caught" true (errors "proc main() { lock(m); }" > 0));
    case "empty programs are rejected" (fun () ->
        check_bool "caught" true (errors "" > 0));
    case "shadowing is allowed" (fun () ->
        check_int "clean" 0
          (errors
             "proc main() { var x = 1; if (x == 1) { var x = 2; x = 3; } }"));
  ]

let access_tests =
  [
    case "proc effects propagate through calls" (fun () ->
        let p =
          parse
            "proc w(p) { *p = 1; } proc v(p) { w(p); } proc main() { var a = \
             malloc(1); v(a); }"
        in
        let eff = Access.effects (Access.of_program p) in
        check_bool "v writes memory" true (eff "v").Access.mem_write;
        check_bool "w writes memory" true (eff "w").Access.mem_write;
        check_bool "w does not read memory" false (eff "w").Access.mem_read);
    case "indirect calls use the any-procedure effect" (fun () ->
        (* a computed callee, and [f], which a variable also names: both
           may invoke every procedure, so they may write memory *)
        List.iter
          (fun src ->
            let p = parse src in
            let access = Access.of_program p in
            let call =
              Ast.fold_program
                (fun acc s ->
                  match s.Ast.kind with Ast.Scall _ -> Some s | _ -> acc)
                None p
              |> Option.get
            in
            check_int "may invoke every procedure"
              (List.length p.Ast.procs)
              (Ast.StringSet.cardinal (Access.callees access call));
            check_bool "writes memory" true
              (Access.summary access call).Access.mem_write)
          [
            "proc w(p) { *p = 1; } proc main() { var g = w; var a = \
             malloc(1); (g)(a); }";
            "proc f(p) { return 0; } proc w(p) { *p = 1; return 0; } proc \
             main() { var f = w; var a = malloc(1); var r = f(a); }";
          ]);
    case "stmt summary collects variables" (fun () ->
        let p =
          parse
            "proc main() { var x = 0; var y = 0; x = y + 1; { var t = x; x = \
             t; } atomic { var u = x; x = u; } }"
        in
        let access = Access.of_program p in
        let nth i =
          match (List.hd p.Ast.procs).Ast.body.Ast.kind with
          | Ast.Sblock ss -> List.nth ss i
          | _ -> assert false
        in
        let mem x set = Ast.StringSet.mem x set in
        let sum = Access.summary access (nth 2) in
        check_bool "reads y" true (mem "y" sum.Access.rvars);
        check_bool "writes x" true (mem "x" sum.Access.wvars);
        (* names declared inside are fresh cells, left out; an atomic
           block scopes its own declarations *)
        let block = Access.summary access (nth 3) in
        check_bool "block writes x" true (mem "x" block.Access.wvars);
        check_bool "block's own t left out" false (mem "t" block.Access.rvars);
        let atomic = Access.summary access (nth 4) in
        check_bool "atomic's own u left out" false
          (mem "u" atomic.Access.rvars);
        check_bool "the atomic action reads u" true
          (mem "u" (Access.action (nth 4)).Access.rvars));
    case "address-taken set" (fun () ->
        let p = parse "proc main() { var x = 0; var p = &x; *p = 1; }" in
        let at = Ast.addr_taken_of_program p in
        check_bool "x taken" true (Ast.StringSet.mem "x" at);
        check_bool "p not" false (Ast.StringSet.mem "p" at));
    case "diagnostics come out sorted by label, unlabeled first" (fun () ->
        (* the labeled error (undeclared variable, in the first proc) is
           collected before the unlabeled one (duplicate parameters of
           the second proc); the report must order them the other way *)
        let prog =
          Parser.parse_string
            "proc p() { y = 1; }\nproc q(a, a) { skip; }\nproc main() { \
             skip; }"
        in
        let r = Check.check prog in
        check_bool "several diagnostics" true (List.length r.Check.errors >= 2);
        check_bool "unlabeled first" true
          ((List.hd r.Check.errors).Check.dlabel = None);
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              a.Check.dlabel <= b.Check.dlabel && sorted rest
          | _ -> true
        in
        check_bool "ascending labels" true (sorted r.Check.errors));
  ]

let suite =
  lexer_tests @ parser_tests @ roundtrip_tests @ check_tests @ access_tests
