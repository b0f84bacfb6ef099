(* Concrete values and locations.

   A process identifier is its fork path: the root process is []; the k-th
   branch of the cobegin at label l spawned by process p is p @ [(l, k)].
   Fork paths are canonical (independent of interleaving), which makes
   configurations comparable across execution orders.

   A location is (creating pid, creation site, per-(pid,site) sequence
   number, cell offset).  Allocation is thereby deterministic: no matter
   the interleaving, the same logical allocation receives the same
   location — essential for folding identical states during exploration. *)

type pid = (int * int) list (* (cobegin label, branch index) path *)

let root_pid : pid = []
let child_pid (p : pid) ~cob ~idx : pid = p @ [ (cob, idx) ]

(* Successors share their processes' pids with the parent, so two pids
   that compare are often one. *)
let compare_pid (p : pid) (q : pid) =
  if p == q then 0
  else
    List.compare
      (fun (a, b) (c, d) ->
        let x = Int.compare a c in
        if x <> 0 then x else Int.compare b d)
      p q

let hash_pid (p : pid) =
  Cobegin_hash.hash_list (fun (cob, idx) -> Cobegin_hash.combine cob idx) p

let pp_pid ppf (p : pid) =
  match p with
  | [] -> Format.pp_print_string ppf "root"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ".")
        (fun ppf (cob, idx) -> Format.fprintf ppf "%d:%d" cob idx)
        ppf p

type loc = {
  l_pid : pid; (* process that created the location *)
  l_site : int; (* statement label of the creating decl/malloc/call *)
  l_seq : int; (* per-(pid, site) sequence number *)
  l_off : int; (* cell offset inside a malloc block *)
}

let compare_loc (a : loc) (b : loc) =
  let c = compare_pid a.l_pid b.l_pid in
  if c <> 0 then c
  else
    let c = Int.compare a.l_site b.l_site in
    if c <> 0 then c
    else
      let c = Int.compare a.l_seq b.l_seq in
      if c <> 0 then c else Int.compare a.l_off b.l_off

let hash_loc (l : loc) =
  Cobegin_hash.combine (hash_pid l.l_pid)
    (Cobegin_hash.combine l.l_site (Cobegin_hash.combine l.l_seq l.l_off))

let pp_loc ppf (l : loc) =
  Format.fprintf ppf "⟨%a/s%d/%d⟩%s" pp_pid l.l_pid l.l_site l.l_seq
    (if l.l_off = 0 then "" else Printf.sprintf "+%d" l.l_off)

module LocSet = Set.Make (struct
  type t = loc

  let compare = compare_loc
end)

module LocMap = Map.Make (struct
  type t = loc

  let compare = compare_loc
end)

type t =
  | Vint of int
  | Vbool of bool
  | Vloc of loc
  | Vfun of string (* a procedure name used as a first-class value *)

let compare_value (a : t) (b : t) =
  match (a, b) with
  | Vint x, Vint y -> Int.compare x y
  | Vbool x, Vbool y -> Bool.compare x y
  | Vloc x, Vloc y -> compare_loc x y
  | Vfun x, Vfun y -> String.compare x y
  | Vint _, _ -> -1
  | _, Vint _ -> 1
  | Vbool _, _ -> -1
  | _, Vbool _ -> 1
  | Vloc _, _ -> -1
  | _, Vloc _ -> 1

let equal_value a b = compare_value a b = 0

let hash = function
  | Vint n -> Cobegin_hash.combine 0x1 (Cobegin_hash.hash_int n)
  | Vbool b -> Cobegin_hash.combine 0x2 (Cobegin_hash.hash_bool b)
  | Vloc l -> Cobegin_hash.combine 0x3 (hash_loc l)
  | Vfun f -> Cobegin_hash.combine 0x4 (Cobegin_hash.hash_string f)

let pp ppf = function
  | Vint n -> Format.pp_print_int ppf n
  | Vbool b -> Format.pp_print_bool ppf b
  | Vloc l -> pp_loc ppf l
  | Vfun f -> Format.fprintf ppf "proc:%s" f

let type_name = function
  | Vint _ -> "int"
  | Vbool _ -> "bool"
  | Vloc _ -> "pointer"
  | Vfun _ -> "procedure"
