(* Process states.  A process is its fork path (pid), its current
   environment, its procedure string, a continuation stack of work
   items, and — under relaxed memory models — a FIFO store buffer of
   writes it has issued but not yet made globally visible.  Statements
   are items; [Ipop] restores the environment at block exit; [Iret]
   marks a pending procedure return; [Ijoin] waits for the children of a
   cobegin. *)

open Cobegin_lang

type item =
  | Istmt of Ast.stmt
  | Ipop of Env.t
  | Iret of { dest : Ast.lvalue option; saved_env : Env.t; site : int }
  | Ijoin of { cob : int; children : Value.pid list }

(* [h] caches [hash]: -1 until the first call computes it.  The hash
   is a pure function of the other, immutable fields, so the one race
   there is — two of Parallel's domains computing it for the same
   process at once — is benign: both write the same int, an int field
   is written whole, and a domain that still reads -1 recomputes the
   same value. *)
type t = {
  pid : Value.pid;
  env : Env.t;
  stack : item list;
  pstr : Pstring.t;
  buf : (Value.loc * Value.t) list;
      (* store buffer, oldest write first; always [] under SC *)
  mutable h : int;
}

let make ?(buf = []) ~pid ~env ~stack ~pstr () =
  { pid; env; stack; pstr; buf; h = -1 }

let update ?env ?stack ?pstr ?buf p =
  {
    pid = p.pid;
    env = Option.value env ~default:p.env;
    stack = Option.value stack ~default:p.stack;
    pstr = Option.value pstr ~default:p.pstr;
    buf = Option.value buf ~default:p.buf;
    h = -1;
  }

(* The hash covers exactly what [equal] compares.  A pending return is
   hashed by its call site and saved environment: the site's label
   fixes the destination, which [equal] also compares. *)
module H = Cobegin_hash

let hash_item = function
  | Istmt s -> H.combine 0x21 (H.hash_int s.Ast.label)
  | Ipop e -> H.combine 0x22 (Env.hash e)
  | Iret { site; saved_env; _ } ->
      H.combine 0x23 (H.combine site (Env.hash saved_env))
  | Ijoin { cob; children } ->
      H.combine 0x24 (H.combine cob (H.hash_list Value.hash_pid children))

let hash_frame = function
  | Pstring.Fcall { proc; site; inst } ->
      H.combine 0x31 (H.combine (H.hash_string proc) (H.combine site inst))
  | Pstring.Fbranch { cob; idx; inst } ->
      H.combine 0x32 (H.combine cob (H.combine idx inst))

let hash p =
  if p.h >= 0 then p.h
  else begin
    let h =
      H.combine (Value.hash_pid p.pid)
        (H.combine (Env.hash p.env)
           (H.combine
              (H.hash_list hash_item p.stack)
              (H.combine
                 (H.hash_list hash_frame p.pstr)
                 (H.hash_list
                    (fun (l, v) -> H.combine (Value.hash_loc l) (Value.hash v))
                    p.buf))))
    in
    p.h <- h;
    h
  end

let item_equal i1 i2 =
  match (i1, i2) with
  | Istmt s1, Istmt s2 -> s1.Ast.label = s2.Ast.label
  | Ipop e1, Ipop e2 -> Env.equal e1 e2
  | Iret r1, Iret r2 ->
      r1.dest = r2.dest && r1.site = r2.site
      && Env.equal r1.saved_env r2.saved_env
  | Ijoin j1, Ijoin j2 ->
      j1.cob = j2.cob
      && List.equal (fun a b -> Value.compare_pid a b = 0) j1.children j2.children
  | (Istmt _ | Ipop _ | Iret _ | Ijoin _), _ -> false

let buf_entry_equal (l1, v1) (l2, v2) =
  Value.compare_loc l1 l2 = 0 && Value.compare_value v1 v2 = 0

let equal p1 p2 =
  p1 == p2
  || hash p1 = hash p2
     && Value.compare_pid p1.pid p2.pid = 0
     && Env.equal p1.env p2.env
     && List.equal item_equal p1.stack p2.stack
     && Pstring.equal p1.pstr p2.pstr
     && List.equal buf_entry_equal p1.buf p2.buf

(* The canonical representation of a process, the identity oracle:
   statement items are identified by label; environments by their
   sorted bindings; the store buffer is order-significant, so its repr
   is the list itself. *)
type item_repr =
  | Rstmt of int
  | Rpop of (string * Value.loc) list
  | Rret of string * (string * Value.loc) list
  | Rjoin of int * Value.pid list

let item_repr = function
  | Istmt s -> Rstmt s.Ast.label
  | Ipop e -> Rpop (Env.bindings e)
  | Iret { dest; saved_env; site } ->
      let d =
        match dest with
        | None -> ""
        | Some lv -> Format.asprintf "%a" Pretty.pp_lvalue lv
      in
      Rret (Printf.sprintf "%d:%s" site d, Env.bindings saved_env)
  | Ijoin { cob; children } -> Rjoin (cob, children)

type repr = {
  r_pid : Value.pid;
  r_env : (string * Value.loc) list;
  r_stack : item_repr list;
  r_pstr : string;
  r_buf : (Value.loc * Value.t) list;
}

let repr p =
  {
    r_pid = p.pid;
    r_env = Env.bindings p.env;
    r_stack = List.map item_repr p.stack;
    r_pstr = Pstring.to_string p.pstr;
    r_buf = p.buf;
  }

(* The statement the process will execute next, if its top item is one. *)
let next_stmt p =
  match p.stack with Istmt s :: _ -> Some s | _ -> None

let is_terminated p = p.stack = [] && p.buf = []

let pp_item ppf = function
  | Istmt s -> Format.fprintf ppf "stmt:%d" s.Ast.label
  | Ipop _ -> Format.pp_print_string ppf "pop"
  | Iret _ -> Format.pp_print_string ppf "ret"
  | Ijoin { cob; _ } -> Format.fprintf ppf "join:%d" cob

let pp ppf p =
  Format.fprintf ppf "@[<h>[%a] %a | stack: %a%a@]" Value.pp_pid p.pid
    Pstring.pp p.pstr
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_item)
    p.stack
    (fun ppf -> function
      | [] -> ()
      | buf -> Format.fprintf ppf " | buf: %d pending" (List.length buf))
    p.buf
