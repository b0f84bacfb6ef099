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

let hash_int_array a =
  Array.fold_left combine (hash_int (Array.length a)) a

module type POOLED = sig
  include Hashtbl.HashedType

  val found : unit -> unit
  val added : unit -> unit
end

module Pool (H : POOLED) = struct
  module T = Hashtbl.Make (H)

  (* The table maps a key to the pair the pool hands out, so a hit
     returns a value already built.  Only a shared pool has a lock: the
     parallel exploration engine interns from every worker.  The mutex
     serializes id assignment, so the n-th distinct key gets id n-1
     whatever the schedule; uncontended lock/unlock costs a few
     nanoseconds.  An unshared pool holds no custom block and no
     closure, so it marshals. *)
  type t = { lock : Mutex.t option; tbl : (H.t * int) T.t; mutable next : int }

  let create ?(shared = false) n =
    {
      lock = (if shared then Some (Mutex.create ()) else None);
      tbl = T.create n;
      next = 0;
    }

  let lookup p k =
    match T.find_opt p.tbl k with
    | Some e ->
        H.found ();
        e
    | None ->
        let e = (k, p.next) in
        p.next <- p.next + 1;
        T.add p.tbl k e;
        H.added ();
        e

  let intern p k =
    match p.lock with
    | None -> lookup p k
    | Some m -> Mutex.protect m (fun () -> lookup p k)

  let size p =
    match p.lock with
    | None -> p.next
    | Some m -> Mutex.protect m (fun () -> p.next)
end
