(* Allocation counters with a maintained hash (see counters.mli).
   [hash] is the wrapping sum of [entry_hash] over the entries: a bump
   subtracts the entry it replaces and adds the new one. *)

module M = Map.Make (struct
  type t = Value.pid * int (* (pid, site) *)

  let compare (p1, s1) (p2, s2) =
    let c = Value.compare_pid p1 p2 in
    if c <> 0 then c else Int.compare s1 s2
end)

type t = { map : int M.t; hash : int }

let entry_hash (pid, site) n =
  Cobegin_hash.combine (Value.hash_pid pid) (Cobegin_hash.combine site n)

let empty = { map = M.empty; hash = 0 }

let next ~pid ~site c =
  let key = (pid, site) in
  let seq, old =
    match M.find_opt key c.map with
    | Some n -> (n, entry_hash key n)
    | None -> (0, 0)
  in
  ( seq,
    {
      map = M.add key (seq + 1) c.map;
      hash = c.hash - old + entry_hash key (seq + 1);
    } )

let hash c = c.hash

let equal a b =
  a == b || (a.hash = b.hash && M.equal Int.equal a.map b.map)

let bindings c = M.bindings c.map
