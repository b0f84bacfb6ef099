(* Minimal JSON reader (see sjson.mli).

   The framework's observability layer emits JSON everywhere but never
   had to read any — the serve daemon's request protocol is the first
   consumer-side JSON in the codebase, and the container ships no JSON
   library, so this is a small recursive-descent parser over the
   grammar the emitters produce (and what clients reasonably send):
   objects, arrays, strings with the standard escapes (including
   \uXXXX with surrogate pairs, decoded to UTF-8), numbers, booleans,
   null.  Integers that fit an OCaml int parse as [Int]; everything
   else numeric as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string * int (* message, position *)

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else error (Printf.sprintf "expected %c" c)
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> error "bad \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let utf8_encode buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then error "unterminated escape";
          (match s.[!pos] with
          | '"' ->
              Buffer.add_char buf '"';
              incr pos
          | '\\' ->
              Buffer.add_char buf '\\';
              incr pos
          | '/' ->
              Buffer.add_char buf '/';
              incr pos
          | 'b' ->
              Buffer.add_char buf '\b';
              incr pos
          | 'f' ->
              Buffer.add_char buf '\012';
              incr pos
          | 'n' ->
              Buffer.add_char buf '\n';
              incr pos
          | 'r' ->
              Buffer.add_char buf '\r';
              incr pos
          | 't' ->
              Buffer.add_char buf '\t';
              incr pos
          | 'u' ->
              incr pos;
              let cp = hex4 () in
              (* surrogate pair: a high surrogate followed by \uDC00-
                 \uDFFF combines into one supplementary code point *)
              let cp =
                if cp >= 0xd800 && cp <= 0xdbff && !pos + 2 <= n
                   && s.[!pos] = '\\'
                   && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  else error "unpaired surrogate"
                end
                else if cp >= 0xd800 && cp <= 0xdfff then
                  error "unpaired surrogate"
                else cp
              in
              utf8_encode buf cp
          | _ -> error "unknown escape");
          go ()
      | c when Char.code c < 0x20 -> error "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d = ref 0 in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos;
        incr d
      done;
      if !d = 0 then error "malformed number"
    in
    digits ();
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !fractional then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let keyword w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then begin
      pos := !pos + String.length w;
      v
    end
    else error "unknown keyword"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ()
            | Some '}' -> incr pos
            | _ -> error "expected , or }"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements ()
            | Some ']' -> incr pos
            | _ -> error "expected , or ]"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> error "expected a JSON value"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None
