(* Place/transition nets with weighted arcs.  This is the substrate on
   which stubborn-set theory was developed ([Val88, Val89, Val90]); the
   paper's state-space-reduction claims (e.g. dining philosophers:
   exponential -> quadratic) are formulated on such nets. *)

type place = int

type transition = {
  tid : int;
  tname : string;
  pre : (place * int) list; (* input places with arc weights *)
  post : (place * int) list; (* output places with arc weights *)
}

type t = {
  nplaces : int;
  place_names : string array;
  transitions : transition array;
  initial : int array; (* initial marking *)
}

type marking = int array

(* Builder: accumulate places and transitions, then freeze. *)
module Builder = struct
  type state = {
    mutable places : (string * int) list; (* name, initial tokens; reversed *)
    mutable nplaces : int;
    mutable trans : transition list; (* reversed *)
    mutable ntrans : int;
  }

  let create () = { places = []; nplaces = 0; trans = []; ntrans = 0 }

  let add_place b name tokens =
    let id = b.nplaces in
    b.places <- (name, tokens) :: b.places;
    b.nplaces <- id + 1;
    id

  let add_transition b name ~pre ~post =
    let check (p, w) =
      if p < 0 || p >= b.nplaces then invalid_arg "Builder.add_transition: bad place";
      if w <= 0 then invalid_arg "Builder.add_transition: bad weight"
    in
    List.iter check pre;
    List.iter check post;
    let tid = b.ntrans in
    b.trans <- { tid; tname = name; pre; post } :: b.trans;
    b.ntrans <- tid + 1;
    tid

  let build b =
    let places = List.rev b.places in
    {
      nplaces = b.nplaces;
      place_names = Array.of_list (List.map fst places);
      transitions = Array.of_list (List.rev b.trans);
      initial = Array.of_list (List.map snd places);
    }
end

let initial_marking net = Array.copy net.initial
let num_transitions net = Array.length net.transitions
let transition net tid = net.transitions.(tid)

let enabled (m : marking) (t : transition) =
  List.for_all (fun (p, w) -> m.(p) >= w) t.pre

let enabled_transitions net (m : marking) =
  Array.to_list net.transitions |> List.filter (enabled m)

(* Fire an enabled transition, producing a fresh marking. *)
let fire (m : marking) (t : transition) : marking =
  let m' = Array.copy m in
  List.iter
    (fun (p, w) ->
      m'.(p) <- m'.(p) - w;
      if m'.(p) < 0 then invalid_arg "Net.fire: transition not enabled")
    t.pre;
  List.iter (fun (p, w) -> m'.(p) <- m'.(p) + w) t.post;
  m'

(* Structural indices used by the stubborn-set closure. *)
type indices = {
  consumers : int list array; (* place -> transitions with the place in pre *)
  producers : int list array; (* place -> transitions with the place in post *)
}

let build_indices net =
  let consumers = Array.make net.nplaces [] in
  let producers = Array.make net.nplaces [] in
  Array.iter
    (fun t ->
      List.iter (fun (p, _) -> consumers.(p) <- t.tid :: consumers.(p)) t.pre;
      List.iter (fun (p, _) -> producers.(p) <- t.tid :: producers.(p)) t.post)
    net.transitions;
  { consumers; producers }

let pp_marking net ppf (m : marking) =
  let nonzero = ref [] in
  Array.iteri
    (fun p n -> if n > 0 then nonzero := (p, n) :: !nonzero)
    m;
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (p, n) ->
         if n = 1 then Format.pp_print_string ppf net.place_names.(p)
         else Format.fprintf ppf "%s×%d" net.place_names.(p) n))
    (List.rev !nonzero)
