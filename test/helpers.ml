(* Shared helpers for the test suites. *)

open Cobegin_lang

let parse src =
  let prog = Parser.parse_string src in
  Check.check_exn prog;
  prog

let ctx_of src = Cobegin_semantics.Step.make_ctx (parse src)

let explore_full ?max_configs src =
  Cobegin_explore.Space.full ?max_configs (ctx_of src)

let explore_stubborn ?max_configs src =
  Cobegin_explore.Stubborn.explore ?max_configs (ctx_of src)

(* qcheck case registered under alcotest. *)
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Generator of small random ints. *)
let small_int = QCheck2.Gen.int_range (-20) 20

(* Random seed for program generation. *)
let seed_gen = QCheck2.Gen.int_range 1 1_000_000

(* Small random terminating cobegin programs. *)
let random_program ?(cfg = Cobegin_models.Generator.default_cfg) seed =
  Cobegin_models.Generator.program ~cfg ~seed ()

(* Sorted outcome multiset of an exploration: final stores canonically. *)
let final_reprs (r : Cobegin_explore.Space.result) =
  Cobegin_explore.Space.final_store_reprs r

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

(* Install a fault plan for the duration of [f]; counters reset on
   install so cases cannot leak hits into each other. *)
let with_chaos spec f =
  (match Fault.parse spec with
  | Ok plan -> Fault.install plan
  | Error e -> Alcotest.failf "bad test chaos spec %S: %s" spec e);
  Fun.protect ~finally:Fault.clear f

(* A minimal JSON validity checker (the container ships no JSON
   library): recursive descent over the grammar, accepting iff the whole
   input is one well-formed value.  Shared by the obs and report suites
   — every JSON artifact the framework emits round-trips through it. *)
let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail := true
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let continue = ref true in
      while !continue && not !fail do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            continue := false
        | _ ->
            fail := true;
            continue := false
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let continue = ref true in
      while !continue && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            continue := false
        | _ ->
            fail := true;
            continue := false
      done
    end
  and str () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      if !pos >= n then fail := true
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            closed := true
        | '\\' -> pos := !pos + 2
        | c when Char.code c < 0x20 -> fail := true
        | _ -> incr pos
    done
  and keyword () =
    let kw w =
      if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
      then pos := !pos + String.length w
      else fail := true
    in
    match peek () with
    | Some 't' -> kw "true"
    | Some 'f' -> kw "false"
    | _ -> kw "null"
  and number () =
    if peek () = Some '-' then incr pos;
    let digits = ref 0 in
    let eat_digits () =
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        incr pos;
        incr digits
      done
    in
    eat_digits ();
    if !digits = 0 then fail := true;
    if peek () = Some '.' then begin
      incr pos;
      digits := 0;
      eat_digits ();
      if !digits = 0 then fail := true
    end;
    match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits := 0;
        eat_digits ();
        if !digits = 0 then fail := true
    | _ -> ()
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0
