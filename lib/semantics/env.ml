(* Environments map variable names to locations.  Blocks save and restore
   environments (see Proc.Ipop), giving lexical block scoping; cobegin
   branches inherit the spawning environment, which is how concurrent
   threads come to share variables.

   Each environment carries the wrapping sum of its bindings' hashes,
   kept up to date by [bind] in O(1): a process hashes its environment
   and the saved ones on its stack without walking any of them. *)

module SM = Map.Make (String)

type t = { map : Value.loc SM.t; hash : int }

let binding_hash x loc =
  Cobegin_hash.combine (Cobegin_hash.hash_string x) (Value.hash_loc loc)

let empty = { map = SM.empty; hash = 0 }
let find x e = SM.find_opt x e.map

let bind x loc e =
  let old =
    match SM.find_opt x e.map with
    | Some l -> binding_hash x l
    | None -> 0
  in
  { map = SM.add x loc e.map; hash = e.hash - old + binding_hash x loc }

let bindings e = SM.bindings e.map
let hash e = e.hash

let equal a b =
  a == b
  || a.hash = b.hash
     && SM.equal (fun l1 l2 -> Value.compare_loc l1 l2 = 0) a.map b.map

(* Locations reachable directly from an environment (its frame of named
   variables). *)
let locations e =
  SM.fold (fun _ l acc -> Value.LocSet.add l acc) e.map Value.LocSet.empty

let pp ppf e =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (x, l) -> Format.fprintf ppf "%s↦%a" x Value.pp_loc l))
    (SM.bindings e.map)
