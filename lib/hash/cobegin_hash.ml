(* Full-width structural hashing.  [Hashtbl.hash] stops after ~10
   meaningful nodes; the folds here visit every node, so structurally
   distinct values of any size almost never collide.  The mixer is the
   boost::hash_combine recurrence with a 60-bit slice of 2^64/phi,
   masked to stay non-negative on 64-bit natives. *)

let gold = 0x9e3779b97f4a7c1

let combine h k = (h lxor (k + gold + (h lsl 6) + (h lsr 2))) land max_int

let hash_int k = combine 0x2b1 k
let hash_bool b = if b then 0x5bd1e995 else 0x2e35a7cd

let hash_string s =
  (* djb2 over every byte, then the length so "" and "\000" differ *)
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land max_int) s;
  combine (String.length s) !h

let hash_list hash_elt l =
  List.fold_left (fun h x -> combine h (hash_elt x)) (hash_int (List.length l)) l

let hash_option hash_elt = function
  | None -> 0x4f
  | Some x -> combine 0x536f6d65 (hash_elt x)

let hash_int_array a =
  Array.fold_left combine (hash_int (Array.length a)) a

module Pool (H : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (H)

  (* The lookup is mutex-guarded so pools can be shared across OCaml 5
     domains (the parallel exploration engine interns from every
     worker).  Ids stay sequential — the mutex serializes assignment,
     so the n-th distinct key interned process-wide gets id n-1 — and
     stable: an id, once handed out, never changes or gets reused.
     Uncontended lock/unlock costs a few nanoseconds, noise next to the
     structural comparison of the key. *)
  type t = {
    lock : Mutex.t;
    tbl : int T.t;
    mutable next : int;
    found : unit -> unit;
    added : unit -> unit;
  }

  let create ?(found = ignore) ?(added = ignore) n =
    { lock = Mutex.create (); tbl = T.create n; next = 0; found; added }

  let intern p k =
    Mutex.protect p.lock (fun () ->
        match T.find_opt p.tbl k with
        | Some id ->
            p.found ();
            id
        | None ->
            let id = p.next in
            p.next <- id + 1;
            T.add p.tbl k id;
            p.added ();
            id)

  let size p = Mutex.protect p.lock (fun () -> p.next)

  (* Consistent (key, id) listing for snapshotting: taken under the
     pool mutex, so concurrent interns either appear fully or not at
     all — ids in the listing are always a prefix 0..n-1. *)
  let entries p =
    Mutex.protect p.lock (fun () ->
        T.fold (fun k id acc -> (k, id) :: acc) p.tbl [])
end
