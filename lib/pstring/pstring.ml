(* Procedure strings (Harrison [Har89], paper section 5).

   The instrumented semantics records the procedural and concurrency
   movements of each process: entering/exiting a procedure and
   entering/exiting a cobegin branch.  Matching enter/exit pairs cancel, so
   a procedure string in reduced form is exactly the stack of currently
   open activations, root first.  Reduced strings are:

     - the *birthdate* of an object (the string at its allocation),
     - the coordinate at which every access is logged,
     - the carrier for the may-happen-in-parallel (MHP) relation.

   Each frame carries a globally unique instance number so two successive
   activations of the same procedure (or two executions of the same cobegin
   in a loop) are distinguished in the concrete semantics.  Abstraction
   ([abstract], [limit]) erases instances and bounds the length, which is
   the folding of birthdates the paper uses in section 6. *)

type frame =
  | Fcall of { proc : string; site : int; inst : int }
      (* activation of [proc], called from statement label [site] *)
  | Fbranch of { cob : int; idx : int; inst : int }
      (* branch [idx] of the cobegin at statement label [cob] *)

type t = frame list (* root-first stack of open activations *)

let empty : t = []
let frames (p : t) = p
let depth = List.length

let frame_equal f1 f2 =
  match (f1, f2) with
  | Fcall a, Fcall b -> a.proc = b.proc && a.site = b.site && a.inst = b.inst
  | Fbranch a, Fbranch b -> a.cob = b.cob && a.idx = b.idx && a.inst = b.inst
  | (Fcall _ | Fbranch _), _ -> false

(* Ignore instance numbers: structural identity of the activation path. *)
let frame_similar f1 f2 =
  match (f1, f2) with
  | Fcall a, Fcall b -> a.proc = b.proc && a.site = b.site
  | Fbranch a, Fbranch b -> a.cob = b.cob && a.idx = b.idx
  | (Fcall _ | Fbranch _), _ -> false

let equal p q = p == q || List.equal frame_equal p q
let similar = List.equal frame_similar

let compare_frame f1 f2 =
  match (f1, f2) with
  | Fcall a, Fcall b ->
      let c = String.compare a.proc b.proc in
      if c <> 0 then c
      else
        let c = Int.compare a.site b.site in
        if c <> 0 then c else Int.compare a.inst b.inst
  | Fbranch a, Fbranch b ->
      let c = Int.compare a.cob b.cob in
      if c <> 0 then c
      else
        let c = Int.compare a.idx b.idx in
        if c <> 0 then c else Int.compare a.inst b.inst
  | Fcall _, Fbranch _ -> -1
  | Fbranch _, Fcall _ -> 1

let compare = List.compare compare_frame

(* Movements. *)
let enter_call ~proc ~site ~inst p = p @ [ Fcall { proc; site; inst } ]
let enter_branch ~cob ~idx ~inst p = p @ [ Fbranch { cob; idx; inst } ]

(* Exit cancels the innermost open activation. *)
let exit_frame p =
  match List.rev p with
  | [] -> invalid_arg "Pstring.exit_frame: empty procedure string"
  | _ :: rev_rest -> List.rev rev_rest

let innermost p = match List.rev p with [] -> None | f :: _ -> Some f

let is_prefix ~prefix p =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | fa :: a', fb :: b' -> frame_equal fa fb && go a' b'
  in
  go prefix p

(* Longest common prefix of two strings: the deepest shared activation. *)
let common_prefix p1 p2 =
  let rec go acc a b =
    match (a, b) with
    | fa :: a', fb :: b' when frame_equal fa fb -> go (fa :: acc) a' b'
    | _ -> List.rev acc
  in
  go [] p1 p2

(* May-happen-in-parallel: after removing the common prefix, the two
   strings must first diverge at two *branches of the same cobegin
   instance* with different indices.  Any other divergence (different call
   sites, ancestor/descendant, different instances of the same cobegin)
   means the two points are ordered by program order or by fork/join. *)
let may_happen_in_parallel p1 p2 =
  let rec go a b =
    match (a, b) with
    | fa :: a', fb :: b' when frame_equal fa fb -> go a' b'
    | Fbranch x :: _, Fbranch y :: _ ->
        x.cob = y.cob && x.inst = y.inst && x.idx <> y.idx
    | _ -> false
  in
  go p1 p2

(* Same relation on instance-erased (abstract) strings: conservative "may". *)
let may_happen_in_parallel_abstract p1 p2 =
  let rec go a b =
    match (a, b) with
    | fa :: a', fb :: b' when frame_similar fa fb -> go a' b'
    | Fbranch x :: _, Fbranch y :: _ -> x.cob = y.cob && x.idx <> y.idx
    | _ -> false
  in
  go p1 p2

(* Does the string contain an open activation of [proc]?  Used by the
   side-effect analysis: an access belongs to every procedure whose
   activation is open at the access. *)
let has_call ~proc p =
  List.exists (function Fcall f -> f.proc = proc | Fbranch _ -> false) p

(* The open activation frames of [proc] in [p], with the prefix up to and
   including each: one entry per nested activation. *)
let activations_of ~proc p =
  let rec go prefix_rev acc = function
    | [] -> List.rev acc
    | (Fcall f as fr) :: rest when f.proc = proc ->
        go (fr :: prefix_rev) (List.rev (fr :: prefix_rev) :: acc) rest
    | fr :: rest -> go (fr :: prefix_rev) acc rest
  in
  go [] [] p

(* Extent owner (paper section 5.3): the deepest activation that encloses
   the birth of an object and all accesses to it.  Returns the reduced
   string of that activation ([] = the whole program).  The object can be
   deallocated when that activation exits. *)
let extent_owner ~birth ~accesses =
  List.fold_left common_prefix birth accesses

(* Abstraction: erase instance numbers. *)
let erase_instances p =
  List.map
    (function
      | Fcall f -> Fcall { f with inst = 0 }
      | Fbranch f -> Fbranch { f with inst = 0 })
    p

(* k-limiting: keep the last [k] frames (innermost activations).  Composed
   with [erase_instances] this is a finite abstract domain of birthdates. *)
let limit k p =
  let n = List.length p in
  if n <= k then p
  else
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    drop (n - k) p

let abstract ~k p = limit k (erase_instances p)

let pp_frame ppf = function
  | Fcall f ->
      if f.inst = 0 then Format.fprintf ppf "%s@@%d" f.proc f.site
      else Format.fprintf ppf "%s@@%d#%d" f.proc f.site f.inst
  | Fbranch f ->
      if f.inst = 0 then Format.fprintf ppf "cob%d.%d" f.cob f.idx
      else Format.fprintf ppf "cob%d.%d#%d" f.cob f.idx f.inst

let pp ppf p =
  match p with
  | [] -> Format.pp_print_string ppf "ε"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "·")
        pp_frame ppf p

let to_string p = Format.asprintf "%a" pp p
