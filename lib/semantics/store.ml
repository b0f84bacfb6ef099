(* The shared store: a map from locations to values, plus instrumentation
   metadata (birthdates, heap-ness) that is deliberately EXCLUDED from
   configuration identity — it is a function of the logical state, and
   keeping it out of the comparison lets interleavings that reach the same
   state fold.

   Freeing removes the cells; any later access to a removed location is a
   runtime error surfaced as an error configuration.

   [hash] is the wrapping sum of the per-cell hashes.  Every write
   subtracts the hash of the cell it replaces and adds the new one, so
   it stays the hash of [cells] in O(1) per write, whatever order the
   cells were written in. *)

type t = {
  cells : Value.t Value.LocMap.t;
  hash : int; (* sum of [cell_hash] over [cells] *)
  births : Pstring.t Value.LocMap.t; (* birthdate of each object *)
  heap : Value.LocSet.t; (* locations created by malloc *)
  exposed : Value.LocSet.t; (* address-taken variables' locations *)
  blocks : int Value.LocMap.t; (* malloc base location -> block size *)
}

let empty =
  {
    cells = Value.LocMap.empty;
    hash = 0;
    births = Value.LocMap.empty;
    heap = Value.LocSet.empty;
    exposed = Value.LocSet.empty;
    blocks = Value.LocMap.empty;
  }

let find loc st = Value.LocMap.find_opt loc st.cells
let mem loc st = Value.LocMap.mem loc st.cells
let cell_hash loc v = Cobegin_hash.combine (Value.hash_loc loc) (Value.hash v)

(* The cells and hash after writing [v] at [loc]. *)
let write loc v st =
  let old =
    match Value.LocMap.find_opt loc st.cells with
    | Some v0 -> cell_hash loc v0
    | None -> 0
  in
  (Value.LocMap.add loc v st.cells, st.hash - old + cell_hash loc v)

let set loc v st =
  let cells, hash = write loc v st in
  { st with cells; hash }

let alloc ?(heap = false) ?(exposed = false) ~birth loc v st =
  let cells, hash = write loc v st in
  {
    st with
    cells;
    hash;
    births = Value.LocMap.add loc birth st.births;
    heap = (if heap then Value.LocSet.add loc st.heap else st.heap);
    exposed =
      (if exposed then Value.LocSet.add loc st.exposed else st.exposed);
  }

let free locs st =
  Value.LocSet.fold
    (fun loc st ->
      match Value.LocMap.find_opt loc st.cells with
      | None -> st
      | Some v ->
          {
            st with
            cells = Value.LocMap.remove loc st.cells;
            hash = st.hash - cell_hash loc v;
          })
    locs st

let birth loc st = Value.LocMap.find_opt loc st.births
let is_heap loc st = Value.LocSet.mem loc st.heap

(* Is the location coverable through a pointer: a heap cell or an
   address-taken variable?  The memory token of the may-access summaries
   covers exactly these. *)
let is_mem_covered loc st =
  Value.LocSet.mem loc st.heap || Value.LocSet.mem loc st.exposed

(* Register a malloc block and return its cell locations. *)
let register_block base size st = { st with blocks = Value.LocMap.add base size st.blocks }

(* The cells of the block whose base is [loc] with offset reset to 0;
   None when [loc] does not point into a registered block. *)
let block_cells loc st =
  let base = { loc with Value.l_off = 0 } in
  match Value.LocMap.find_opt base st.blocks with
  | None -> None
  | Some size ->
      Some
        (List.init size (fun i -> { base with Value.l_off = i })
        |> Value.LocSet.of_list)

(* Canonical representation, the identity oracle: sorted bindings of the
   cells only. *)
let repr st = Value.LocMap.bindings st.cells

let hash st = st.hash

let equal a b =
  a == b
  || a.hash = b.hash
     && (a.cells == b.cells
        || Value.LocMap.equal Value.equal_value a.cells b.cells)

let same_cells a b = a.cells == b.cells

(* Only the cells: the metadata is not what [equal] compares, so a
   pooled store's metadata may differ from this one's. *)
let adopt_cells ~pooled st =
  if pooled == st || pooled.cells == st.cells then st
  else { st with cells = pooled.cells }

let bindings st = Value.LocMap.bindings st.cells

let pp ppf st =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (l, v) ->
         Format.fprintf ppf "%a = %a" Value.pp_loc l Value.pp v))
    (bindings st)
