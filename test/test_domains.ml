(* Lattice laws and soundness of the abstract domains, mostly as qcheck
   properties driven through the Galois connections. *)

open Cobegin_domains
open Helpers

(* Generic lattice-law battery over a lattice with a value generator. *)
module Laws (L : Lattice.LATTICE) = struct
  let laws ~name gen =
    let open QCheck2 in
    [
      qtest (name ^ ": join commutative") (Gen.pair gen gen) (fun (a, b) ->
          L.equal (L.join a b) (L.join b a));
      qtest (name ^ ": join associative")
        (Gen.triple gen gen gen)
        (fun (a, b, c) ->
          L.equal (L.join a (L.join b c)) (L.join (L.join a b) c));
      qtest (name ^ ": join idempotent") gen (fun a -> L.equal (L.join a a) a);
      qtest (name ^ ": bottom neutral") gen (fun a ->
          L.equal (L.join L.bottom a) a);
      qtest (name ^ ": leq reflexive") gen (fun a -> L.leq a a);
      qtest (name ^ ": leq vs join")
        (Gen.pair gen gen)
        (fun (a, b) -> L.leq a (L.join a b) && L.leq b (L.join a b));
      qtest (name ^ ": leq antisymmetric-ish")
        (Gen.pair gen gen)
        (fun (a, b) -> if L.leq a b && L.leq b a then L.equal a b else true);
    ]
end

(* --- generators for each domain --- *)

let interval_gen =
  let open QCheck2.Gen in
  let bound =
    oneof
      [
        return Interval.NegInf;
        return Interval.PosInf;
        map (fun n -> Interval.Fin n) small_int;
      ]
  in
  map2 (fun lo hi -> Interval.of_bounds lo hi) bound bound

let sign_gen =
  let open QCheck2.Gen in
  map3
    (fun neg zero pos -> { Sign.neg; zero; pos })
    bool bool bool

let parity_gen =
  QCheck2.Gen.oneofl [ Parity.Bot; Parity.Even; Parity.Odd; Parity.Top ]

let const_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Const.bottom;
      return Const.top;
      map Const.of_int small_int;
    ]

let bool3_gen =
  QCheck2.Gen.oneofl [ Bool3.Bot; Bool3.True; Bool3.False; Bool3.Either ]

let int_parity_gen =
  QCheck2.Gen.map2 Int_parity.make interval_gen parity_gen

module Interval_laws = Laws (Interval)
module Sign_laws = Laws (Sign)
module Parity_laws = Laws (Parity)
module Const_laws = Laws (Const)
module Bool3_laws = Laws (Bool3)
module Int_parity_laws = Laws (Int_parity)

(* --- the one abstract value domain, as each engine instantiates it --- *)

module Aval = Cobegin_absint.Aval
module Aloc = Cobegin_absint.Aloc
module Value = Cobegin_semantics.Value
module Machine_value = Aval.Make (Interval) (Aval.Alocs) (Aval.Funs)
module Interfere_value = Aval.Make (Interval) (Aval.Flag) (Aval.Flag)

let machine_value_gen =
  let open QCheck2.Gen in
  let alocs =
    map Aloc.Set.of_list
      (list_size (0 -- 2)
         (oneofl
            [
              Aloc.Adecl { site = 1; var = "x" };
              Aloc.Aparam { proc = "f"; idx = 0; var = "a" };
              Aloc.Asite { site = 3 };
            ]))
  and funs = map Aval.Funs.of_list (list_size (0 -- 2) (oneofl [ "f"; "g" ])) in
  map2
    (fun (num, bool3) (ptrs, funs) ->
      { Machine_value.num; bool3; ptrs; funs })
    (pair interval_gen bool3_gen) (pair alocs funs)

let interfere_value_gen =
  let open QCheck2.Gen in
  map2
    (fun (num, bool3) (ptrs, funs) ->
      { Interfere_value.num; bool3; ptrs; funs })
    (pair interval_gen bool3_gen) (pair bool bool)

module Machine_value_laws = Laws (Machine_value)
module Interfere_value_laws = Laws (Interfere_value)

(* Equality over joins of abstracted concrete values: [cmp_eq] may be
   true of every equal pair drawn from the two sides and false of every
   unequal one, and [cmp_ne] the other way round — across kinds too. *)
module Equality_law (V : sig
  type t

  val bottom : t
  val join : t -> t -> t
  val cmp_eq : t -> t -> t
  val cmp_ne : t -> t -> t
  val truth : t -> Bool3.t
  val alpha : Value.t -> t
end) =
struct
  let holds us vs =
    let abs = List.fold_left (fun acc u -> V.join acc (V.alpha u)) V.bottom in
    let x = abs us and y = abs vs in
    let eq = V.truth (V.cmp_eq x y) and ne = V.truth (V.cmp_ne x y) in
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            if Value.equal_value a b then
              Bool3.may_be_true eq && Bool3.may_be_false ne
            else Bool3.may_be_false eq && Bool3.may_be_true ne)
          vs)
      us
end

(* Two lists of concrete values, both of one kind or both of any. *)
let concrete_values_gen =
  let open QCheck2.Gen in
  let ints = map (fun n -> Value.Vint n) (int_range (-2) 2)
  and bools = map (fun b -> Value.Vbool b) bool
  and locs =
    map2
      (fun l_site l_seq ->
        Value.Vloc { Value.l_pid = []; l_site; l_seq; l_off = 0 })
      (int_range 1 2) (int_range 0 1)
  and funs = map (fun f -> Value.Vfun f) (oneofl [ "f"; "g" ]) in
  oneofl [ ints; bools; locs; funs; oneof [ ints; bools; locs; funs ] ]
  >>= fun g -> pair (list_size (1 -- 3) g) (list_size (1 -- 3) g)

let equality_law =
  qtest ~count:200
    "aval: cmp_eq/cmp_ne agree with concrete equality (both engines' \
     instances, every domain)"
    concrete_values_gen
    (fun (us, vs) ->
      List.for_all
        (fun (row : Cobegin_absint.Analyzer.row) ->
          let module N = (val row.lattice) in
          let module M = Equality_law (struct
            include Aval.Make (N) (Aval.Alocs) (Aval.Funs)

            let truth v = v.bool3

            let alpha = function
              | Value.Vint n -> of_int n
              | Value.Vbool b -> of_bool b
              | Value.Vloc l ->
                  of_ptrs (Aloc.Set.singleton (Aloc.Asite { site = l.l_site }))
              | Value.Vfun f -> of_funs (Aval.Funs.singleton f)
          end) in
          let module I = Equality_law (struct
            include Aval.Make (N) (Aval.Flag) (Aval.Flag)

            let truth v = v.bool3

            let alpha = function
              | Value.Vint n -> of_int n
              | Value.Vbool b -> of_bool b
              | Value.Vloc _ -> of_ptrs true
              | Value.Vfun _ -> of_funs true
          end) in
          M.holds us vs && I.holds us vs)
        Cobegin_absint.Analyzer.domains)

(* --- soundness via Galois connections --- *)

let op_sound ?(no_zero_rhs = false) name conn abstract_op concrete_op =
  let open QCheck2 in
  qtest
    (name ^ " sound")
    Gen.(pair (list_size (1 -- 4) small_int) (list_size (1 -- 4) small_int))
    (fun (xs, ys) ->
      (* exclude division by zero samples *)
      if no_zero_rhs && List.mem 0 ys then true
      else Galois.operator_sound_on conn ~abstract_op ~concrete_op xs ys)

let interval_soundness =
  [
    op_sound "interval add" Galois.interval Interval.add ( + );
    op_sound "interval sub" Galois.interval Interval.sub ( - );
    op_sound "interval mul" Galois.interval Interval.mul ( * );
    op_sound ~no_zero_rhs:true "interval div" Galois.interval Interval.div ( / );
    qtest "interval alpha sound"
      QCheck2.Gen.(list_size (1 -- 6) small_int)
      (fun xs -> Galois.sound_on_sample Galois.interval xs);
  ]

let sign_soundness =
  [
    op_sound "sign add" Galois.sign Sign.add ( + );
    op_sound "sign sub" Galois.sign Sign.sub ( - );
    op_sound "sign mul" Galois.sign Sign.mul ( * );
    qtest "sign alpha sound"
      QCheck2.Gen.(list_size (1 -- 6) small_int)
      (fun xs -> Galois.sound_on_sample Galois.sign xs);
  ]

let parity_soundness =
  [
    op_sound "parity add" Galois.parity Parity.add ( + );
    op_sound "parity mul" Galois.parity Parity.mul ( * );
    qtest "parity alpha sound"
      QCheck2.Gen.(list_size (1 -- 6) small_int)
      (fun xs -> Galois.sound_on_sample Galois.parity xs);
  ]

let const_soundness =
  [
    op_sound "const add" Galois.const Const.add ( + );
    op_sound "const mul" Galois.const Const.mul ( * );
  ]

let int_parity_soundness =
  [
    op_sound "interval×parity add" Galois.int_parity Int_parity.add ( + );
    op_sound "interval×parity sub" Galois.int_parity Int_parity.sub ( - );
    op_sound "interval×parity mul" Galois.int_parity Int_parity.mul ( * );
    qtest "interval×parity alpha sound"
      QCheck2.Gen.(list_size (1 -- 6) small_int)
      (fun xs -> Galois.sound_on_sample Galois.int_parity xs);
    case "reduction tightens bounds to the parity" (fun () ->
        let v = Int_parity.make (Interval.range 1 5) Parity.Even in
        check_bool "lower bound 2" true (Int_parity.contains v 2);
        check_bool "1 excluded" false (Int_parity.contains v 1);
        check_bool "5 excluded" false (Int_parity.contains v 5));
    case "contradictory components reduce to bottom" (fun () ->
        let v = Int_parity.make (Interval.range 3 3) Parity.Even in
        check_bool "bottom" true (Int_parity.is_bottom v));
    qtest "reduction preserves concretization"
      QCheck2.Gen.(pair int_parity_gen small_int)
      (fun (v, n) ->
        (* reduce is applied by make/join; membership must match the
           intersection of the component concretizations *)
        Int_parity.contains v n
        = (Interval.contains v.Int_parity.itv n
          && Parity.contains v.Int_parity.par n));
  ]

(* --- comparison decisions must agree with the concrete comparisons --- *)

let cmp_sound name alpha cmp concrete =
  let open QCheck2 in
  qtest name
    Gen.(pair (list_size (1 -- 4) small_int) (list_size (1 -- 4) small_int))
    (fun (xs, ys) ->
      match cmp (alpha xs) (alpha ys) with
      | None -> true
      | Some r ->
          List.for_all (fun x -> List.for_all (fun y -> concrete x y = r) ys) xs)

let cmp_tests =
  let ai xs = Galois.interval.Galois.alpha xs in
  let asg xs = Galois.sign.Galois.alpha xs in
  [
    cmp_sound "interval cmp_lt decides correctly" ai Interval.cmp_lt ( < );
    cmp_sound "interval cmp_le decides correctly" ai Interval.cmp_le ( <= );
    cmp_sound "interval cmp_eq decides correctly" ai Interval.cmp_eq ( = );
    cmp_sound "sign cmp_lt decides correctly" asg Sign.cmp_lt ( < );
    cmp_sound "sign cmp_le decides correctly" asg Sign.cmp_le ( <= );
    cmp_sound "sign cmp_eq decides correctly" asg Sign.cmp_eq ( = );
  ]

(* --- branch refinements keep every value satisfying the relation --- *)

let assume_sound name alpha refine_op concrete gamma_mem =
  let open QCheck2 in
  qtest name
    Gen.(pair (list_size (1 -- 4) small_int) (list_size (1 -- 4) small_int))
    (fun (xs, ys) ->
      let refined = refine_op (alpha xs) (alpha ys) in
      List.for_all
        (fun x ->
          if List.exists (fun y -> concrete x y) ys then gamma_mem refined x
          else true)
        xs)

let assume_tests =
  let ai xs = Galois.interval.Galois.alpha xs in
  let asg xs = Galois.sign.Galois.alpha xs in
  [
    assume_sound "interval assume_lt sound" ai Interval.assume_lt ( < )
      Interval.contains;
    assume_sound "interval assume_le sound" ai Interval.assume_le ( <= )
      Interval.contains;
    assume_sound "interval assume_gt sound" ai Interval.assume_gt ( > )
      Interval.contains;
    assume_sound "interval assume_ge sound" ai Interval.assume_ge ( >= )
      Interval.contains;
    assume_sound "interval assume_eq sound" ai Interval.assume_eq ( = )
      Interval.contains;
    assume_sound "interval assume_ne sound" ai Interval.assume_ne ( <> )
      Interval.contains;
    assume_sound "sign assume_lt sound" asg Sign.assume_lt ( < ) Sign.contains;
    assume_sound "sign assume_gt sound" asg Sign.assume_gt ( > ) Sign.contains;
    assume_sound "sign assume_le sound" asg Sign.assume_le ( <= ) Sign.contains;
    assume_sound "sign assume_ge sound" asg Sign.assume_ge ( >= ) Sign.contains;
  ]

(* --- widening: increasing chains stabilize --- *)

let widening_tests =
  [
    qtest "interval widening stabilizes"
      QCheck2.Gen.(list_size (1 -- 30) (pair small_int small_int))
      (fun steps ->
        let v = ref Interval.bottom in
        let stable = ref 0 in
        List.iter
          (fun (a, b) ->
            let next =
              Interval.join !v (Interval.range (min a b) (max a b))
            in
            let w = Interval.widen !v next in
            if Interval.equal w !v then incr stable;
            v := w)
          steps;
        (* after widening, chains of length > 4 must have stabilized *)
        List.length steps < 5 || !stable > 0);
    case "widen jumps unstable upper bound to +oo" (fun () ->
        let w = Interval.widen (Interval.range 0 1) (Interval.range 0 2) in
        check_bool "unbounded above" true
          Interval.(equal w (of_bounds (Fin 0) PosInf)));
    case "widen keeps stable bounds" (fun () ->
        let w = Interval.widen (Interval.range 0 5) (Interval.range 2 5) in
        check_bool "same" true Interval.(equal w (range 0 5)));
    case "threshold widening lands on the nearest threshold" (fun () ->
        let w =
          Interval.widen_thresholds [ 0; 2; 10 ] (Interval.range 0 1)
            (Interval.range 0 3)
        in
        check_bool "upper lands on 10" true Interval.(equal w (range 0 10));
        let w =
          Interval.widen_thresholds [ -5; 0 ]
            (Interval.range 0 1)
            (Interval.range (-2) 1)
        in
        check_bool "lower lands on -5" true Interval.(equal w (range (-5) 1)));
    case "threshold widening escalates past the last threshold" (fun () ->
        let w =
          Interval.widen_thresholds [ 1; 2 ] (Interval.range 0 2)
            (Interval.range 0 5)
        in
        check_bool "no threshold left: +oo" true
          Interval.(equal w (of_bounds (Fin 0) PosInf)));
    case "threshold widening keeps stable bounds" (fun () ->
        let w =
          Interval.widen_thresholds [ 7 ] (Interval.range 0 5)
            (Interval.range 2 5)
        in
        check_bool "same" true Interval.(equal w (range 0 5)));
    qtest "threshold widening refines plain widening"
      QCheck2.Gen.(
        triple
          (list_size (0 -- 6) small_int)
          (pair small_int small_int)
          (pair small_int small_int))
      (fun (ts, (a1, b1), (a2, b2)) ->
        let old_ = Interval.range (min a1 b1) (max a1 b1) in
        let new_ = Interval.join old_ (Interval.range (min a2 b2) (max a2 b2)) in
        let wt = Interval.widen_thresholds ts old_ new_ in
        (* an upper bound of both arguments, and never coarser than the
           plain widening *)
        Interval.leq new_ wt && Interval.leq old_ wt
        && Interval.leq wt (Interval.widen old_ new_));
    qtest "threshold widening stabilizes"
      QCheck2.Gen.(
        pair
          (list_size (0 -- 5) small_int)
          (list_size (1 -- 30) (pair small_int small_int)))
      (fun (ts, steps) ->
        let v = ref Interval.bottom in
        let changes = ref 0 in
        List.iter
          (fun (a, b) ->
            let next =
              Interval.join !v (Interval.range (min a b) (max a b))
            in
            let w = Interval.widen_thresholds ts !v next in
            if not (Interval.equal w !v) then incr changes;
            v := w)
          steps;
        (* each bound moves strictly through the thresholds to infinity:
           at most |ts|+1 unstable moves per bound, plus the first step
           out of bottom *)
        !changes <= (2 * List.length ts) + 3);
  ]

(* --- interval unit tests --- *)

let interval_units =
  [
    case "interval meet empty" (fun () ->
        check_bool "disjoint" true
          (Interval.is_bottom
             (Interval.meet (Interval.range 0 1) (Interval.range 3 4))));
    case "interval singleton" (fun () ->
        check_bool "yes" true (Interval.singleton (Interval.range 3 3) = Some 3);
        check_bool "no" true (Interval.singleton (Interval.range 3 4) = None));
    case "interval narrow refines infinity" (fun () ->
        let widened = Interval.of_bounds (Interval.Fin 0) Interval.PosInf in
        let n = Interval.narrow widened (Interval.range 0 10) in
        check_bool "narrowed" true Interval.(equal n (range 0 10)));
    case "division by possibly-zero divisor is top" (fun () ->
        let d = Interval.div (Interval.range 1 1) (Interval.range (-1) 1) in
        check_bool "top" true (Interval.is_top d));
    case "pointer-free arithmetic" (fun () ->
        check_bool "add" true
          Interval.(equal (add (range 1 2) (range 3 4)) (range 4 6));
        check_bool "neg" true Interval.(equal (neg (range 1 2)) (range (-2) (-1)));
        check_bool "mul" true
          Interval.(equal (mul (range (-1) 2) (range 3 3)) (range (-3) 6)));
  ]

(* --- powerset / map / product --- *)

module IntSet = Powerset.Make (struct
  type t = int

  let compare = Int.compare
  let equal = Int.equal
  let pp = Format.pp_print_int
end)

module IntMap = Map_lattice.Make
    (struct
      type t = int

      let compare = Int.compare
      let equal = Int.equal
      let pp = Format.pp_print_int
    end)
    (Interval)

let structure_tests =
  [
    qtest "powerset laws"
      QCheck2.Gen.(pair (list small_int) (list small_int))
      (fun (a, b) ->
        let sa = IntSet.of_list a and sb = IntSet.of_list b in
        IntSet.equal (IntSet.join sa sb) (IntSet.join sb sa)
        && IntSet.leq sa (IntSet.join sa sb));
    qtest "map lattice pointwise"
      QCheck2.Gen.(list (pair (int_range 0 5) (pair small_int small_int)))
      (fun kvs ->
        let m =
          List.fold_left
            (fun m (k, (a, b)) ->
              IntMap.update k
                (fun v -> Interval.join v (Interval.range (min a b) (max a b)))
                m)
            IntMap.bottom kvs
        in
        IntMap.leq m (IntMap.join m m) && IntMap.equal (IntMap.join m m) m);
    case "map lattice normalizes bottom" (fun () ->
        let m = IntMap.set 3 Interval.bottom IntMap.bottom in
        check_bool "empty" true (IntMap.is_bottom m));
    case "bool3 truth tables" (fun () ->
        check_bool "and" true (Bool3.and_ Bool3.True Bool3.Either = Bool3.Either);
        check_bool "and false" true
          (Bool3.and_ Bool3.False Bool3.Either = Bool3.False);
        check_bool "or true" true (Bool3.or_ Bool3.True Bool3.Either = Bool3.True);
        check_bool "not" true (Bool3.not_ Bool3.Either = Bool3.Either));
  ]

(* --- generic fixpoint solver --- *)

let fixpoint_tests =
  [
    case "fixpoint solves a small dataflow problem" (fun () ->
        (* nodes 0..3 in a diamond: 0 -> 1,2 -> 3; transfer adds ranges *)
        let module P = struct
          module L = Interval

          type node = int

          let compare_node = Int.compare
          let nodes = [ 0; 1; 2; 3 ]
          let init n = if n = 0 then Interval.range 0 0 else Interval.bottom

          let transfer ~lookup n =
            match n with
            | 0 -> Interval.range 0 0
            | 1 -> Interval.add (lookup 0) (Interval.range 1 1)
            | 2 -> Interval.add (lookup 0) (Interval.range 2 2)
            | 3 -> Interval.join (lookup 1) (lookup 2)
            | _ -> Interval.bottom

          let dependents = function
            | 0 -> [ 1; 2 ]
            | 1 | 2 -> [ 3 ]
            | _ -> []

          let widening_delay = 10
          let widen = Interval.widen
        end in
        let module S = Fixpoint.Make (P) in
        let sol = S.solve () in
        check_bool "node 3 is [1,2]" true
          Interval.(equal (S.lookup sol 3) (range 1 2)));
    case "fixpoint widens a loop" (fun () ->
        (* single node increasing forever: widening must terminate *)
        let module P = struct
          module L = Interval

          type node = int

          let compare_node = Int.compare
          let nodes = [ 0 ]
          let init _ = Interval.range 0 0

          let transfer ~lookup n =
            Interval.join (Interval.range 0 0)
              (Interval.add (lookup n) (Interval.range 1 1))

          let dependents _ = [ 0 ]
          let widening_delay = 3
          let widen = Interval.widen
        end in
        let module S = Fixpoint.Make (P) in
        let sol = S.solve () in
        check_bool "unbounded above" true
          (match S.lookup sol 0 with
          | Interval.Range (Interval.Fin 0, Interval.PosInf) -> true
          | _ -> false));
  ]

let suite =
  Interval_laws.laws ~name:"interval" interval_gen
  @ Sign_laws.laws ~name:"sign" sign_gen
  @ Parity_laws.laws ~name:"parity" parity_gen
  @ Const_laws.laws ~name:"const" const_gen
  @ Bool3_laws.laws ~name:"bool3" bool3_gen
  @ Int_parity_laws.laws ~name:"interval×parity" int_parity_gen
  @ Machine_value_laws.laws ~name:"aval (machine)" machine_value_gen
  @ Interfere_value_laws.laws ~name:"aval (interfere)" interfere_value_gen
  @ [ equality_law ]
  @ interval_soundness @ sign_soundness @ parity_soundness @ const_soundness
  @ int_parity_soundness
  @ cmp_tests @ assume_tests @ widening_tests @ interval_units
  @ structure_tests @ fixpoint_tests
