(* Abstract values: the product of
     - a numeric component (functor parameter [N]),
     - a three-valued boolean component,
     - a pointer component (functor parameter [P]),
     - a procedure component (functor parameter [F]).
   The concretization of a record is the union of the concretizations of
   its components; evaluation is strict in bottom.  The abstract machine
   takes abstract-location and procedure-name sets ([Alocs], [Funs]);
   the interference engine takes may-be-a-pointer and may-be-a-procedure
   flags ([Flag]). *)

open Cobegin_domains

(* A non-numeric component: its lattice, and the verdict [cmp_eq] gives
   when both operands populate it. *)
module type COMPONENT = sig
  include Lattice.WIDENING

  val cmp_eq : t -> t -> Bool3.t
end

(* Points-to sets: disjoint ones never alias, and the same abstract
   location does not imply the same concrete one. *)
module Alocs = struct
  include Aloc.Set

  let cmp_eq a b = if is_bottom (inter a b) then Bool3.False else Bool3.Either
end

(* Sets of procedure names: a procedure value is its name. *)
module Funs = struct
  include Powerset.Make (struct
    type t = string

    let compare = String.compare
    let equal = String.equal
    let pp = Format.pp_print_string
  end)

  let cmp_eq a b =
    match (elements a, elements b) with
    | [ f ], [ g ] when String.equal f g -> Bool3.True
    | _ -> if is_bottom (inter a b) then Bool3.False else Bool3.Either
end

(* The two-point lattice "may be one": nothing tells two members apart. *)
module Flag = struct
  type t = bool

  let bottom = false
  let is_bottom b = not b
  let leq a b = (not a) || b
  let join = ( || )
  let widen = ( || )
  let equal = Bool.equal
  let pp _ _ = ()
  let cmp_eq _ _ = Bool3.Either
end

module Make (N : Lattice.NUMERIC) (P : COMPONENT) (F : COMPONENT) = struct
  type t = { num : N.t; bool3 : Bool3.t; ptrs : P.t; funs : F.t }

  let bottom =
    { num = N.bottom; bool3 = Bool3.bottom; ptrs = P.bottom; funs = F.bottom }

  let is_bottom v =
    N.is_bottom v.num && Bool3.is_bottom v.bool3 && P.is_bottom v.ptrs
    && F.is_bottom v.funs

  let of_int n = { bottom with num = N.of_int n }
  let of_bool b = { bottom with bool3 = Bool3.of_bool b }
  let of_ptrs p = { bottom with ptrs = p }
  let of_funs f = { bottom with funs = f }

  (* The default value of fresh cells is the integer 0. *)
  let zero = of_int 0

  let join a b =
    {
      num = N.join a.num b.num;
      bool3 = Bool3.join a.bool3 b.bool3;
      ptrs = P.join a.ptrs b.ptrs;
      funs = F.join a.funs b.funs;
    }

  let widen a b =
    {
      num = N.widen a.num b.num;
      bool3 = Bool3.widen a.bool3 b.bool3;
      ptrs = P.widen a.ptrs b.ptrs;
      funs = F.widen a.funs b.funs;
    }

  let leq a b =
    N.leq a.num b.num && Bool3.leq a.bool3 b.bool3 && P.leq a.ptrs b.ptrs
    && F.leq a.funs b.funs

  let equal a b =
    N.equal a.num b.num && Bool3.equal a.bool3 b.bool3
    && P.equal a.ptrs b.ptrs && F.equal a.funs b.funs

  (* --- operator transfer functions --- *)

  let lift_num f a b = { bottom with num = f a.num b.num }

  let add a b = lift_num N.add a b
  let sub a b = lift_num N.sub a b
  let mul a b = lift_num N.mul a b
  let div a b = lift_num N.div a b
  let neg a = { bottom with num = N.neg a.num }
  let not_ a = { bottom with bool3 = Bool3.not_ a.bool3 }
  let and_ a b = { bottom with bool3 = Bool3.and_ a.bool3 b.bool3 }
  let or_ a b = { bottom with bool3 = Bool3.or_ a.bool3 b.bool3 }

  (* Which components are populated? *)
  let kinds v =
    (if not (N.is_bottom v.num) then [ `Num ] else [])
    @ (if not (Bool3.is_bottom v.bool3) then [ `Bool ] else [])
    @ (if not (P.is_bottom v.ptrs) then [ `Ptr ] else [])
    @ if not (F.is_bottom v.funs) then [ `Fun ] else []

  (* Equality may relate any two components of the same kind; values of
     different kinds compare unequal (so e.g. pointer != 0 is decided). *)
  let cmp_eq a b =
    let num =
      if N.is_bottom a.num || N.is_bottom b.num then Bool3.Bot
      else Bool3.of_option (N.cmp_eq a.num b.num)
    in
    let bools =
      match (a.bool3, b.bool3) with
      | Bool3.Bot, _ | _, Bool3.Bot -> Bool3.Bot
      | Bool3.True, Bool3.True | Bool3.False, Bool3.False -> Bool3.True
      | Bool3.True, Bool3.False | Bool3.False, Bool3.True -> Bool3.False
      | _ -> Bool3.Either
    in
    let ptrs =
      if P.is_bottom a.ptrs || P.is_bottom b.ptrs then Bool3.Bot
      else P.cmp_eq a.ptrs b.ptrs
    in
    let funs =
      if F.is_bottom a.funs || F.is_bottom b.funs then Bool3.Bot
      else F.cmp_eq a.funs b.funs
    in
    let cross =
      (* a value of one kind never equals a value of another *)
      if
        List.exists
          (fun ka -> List.exists (fun kb -> ka <> kb) (kinds b))
          (kinds a)
      then Bool3.False
      else Bool3.Bot
    in
    {
      bottom with
      bool3 =
        List.fold_left Bool3.join Bool3.Bot [ num; bools; ptrs; funs; cross ];
    }

  let cmp_ne a b = not_ (cmp_eq a b)

  let cmp_with f a b =
    if N.is_bottom a.num || N.is_bottom b.num then bottom
    else { bottom with bool3 = Bool3.of_option (f a.num b.num) }

  let cmp_lt a b = cmp_with N.cmp_lt a b
  let cmp_le a b = cmp_with N.cmp_le a b
  let cmp_gt a b = cmp_with N.cmp_lt b a
  let cmp_ge a b = cmp_with N.cmp_le b a

  let pp ppf v =
    let parts = ref [] in
    if not (N.is_bottom v.num) then
      parts := Format.asprintf "%a" N.pp v.num :: !parts;
    if not (Bool3.is_bottom v.bool3) then
      parts := Format.asprintf "%a" Bool3.pp v.bool3 :: !parts;
    if not (P.is_bottom v.ptrs) then
      parts := Format.asprintf "ptr%a" P.pp v.ptrs :: !parts;
    if not (F.is_bottom v.funs) then
      parts := Format.asprintf "fun%a" F.pp v.funs :: !parts;
    match !parts with
    | [] -> Format.pp_print_string ppf "⊥"
    | ps -> Format.pp_print_string ppf (String.concat "∨" (List.rev ps))
end
