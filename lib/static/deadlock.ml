(* Potential deadlocks from the lock-order graph.

   There is an edge a -> b for every acquire site of stable lock b at
   which stable lock a may already be held ([Lockset.may_held]).  A
   strongly connected component with at least two locks is a cyclic
   acquisition order; it is reported as a potential deadlock when at
   least two of the acquire sites involved may happen in parallel —
   without MHP evidence the orders can never actually contend (e.g. a
   single process taking locks in both orders sequentially).

   Classic dining philosophers produce the cycle fork0 -> fork1 -> ...
   -> fork0; the asymmetric (ordered) variant breaks the cycle and is
   not reported.  Over-approximation: may-held locksets and the MHP
   relation are both supersets of what executions realize, so a
   reported cycle is a hint, not a proof — but an acyclic lock-order
   graph really cannot deadlock on stable locks. *)

open Cobegin_lang
open Ast
module SS = Ast.StringSet

type cycle = {
  locks : string list;  (** the locks of the SCC, sorted *)
  sites : int list;  (** acquire sites of the SCC's edges, sorted *)
}

let compare_cycle a b = compare (a.locks, a.sites) (b.locks, b.sites)

type edge = { e_from : string; e_to : string; e_site : int }

let edges (ls : Lockset.t) : edge list =
  let stable = Lockset.stable ls in
  fold_program
    (fun acc s ->
      match s.kind with
      | Sacquire b when SS.mem b stable ->
          SS.fold
            (fun a acc ->
              if a = b then acc
              else { e_from = a; e_to = b; e_site = s.label } :: acc)
            (SS.inter (Lockset.may_held ls s.label) stable)
            acc
      | _ -> acc)
    []
    (Mhp.program (Lockset.mhp ls))

(* Strongly connected components (Tarjan) over the lock names. *)
let sccs (nodes : string list) (succ : string -> string list) :
    string list list =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  !out

let find (ls : Lockset.t) : cycle list =
  let mhp = Lockset.mhp ls in
  let es = edges ls in
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) es)
  in
  let succ v =
    List.filter_map (fun e -> if e.e_from = v then Some e.e_to else None) es
  in
  sccs nodes succ
  |> List.filter_map (fun comp ->
         if List.length comp < 2 then None
         else
           let in_comp x = List.mem x comp in
           let sites =
             List.sort_uniq compare
               (List.filter_map
                  (fun e ->
                    if in_comp e.e_from && in_comp e.e_to then Some e.e_site
                    else None)
                  es)
           in
           let contended =
             List.exists
               (fun s1 ->
                 List.exists
                   (fun s2 ->
                     s1 < s2 && Mhp.may_happen_parallel mhp s1 s2)
                   sites)
               sites
           in
           if contended then
             Some { locks = List.sort compare comp; sites }
           else None)
  |> List.sort compare_cycle

let pp_cycle ppf c =
  Format.fprintf ppf "cyclic lock order {%s} acquired at {%s}"
    (String.concat ", " c.locks)
    (String.concat ", " (List.map (fun l -> Printf.sprintf "s%d" l) c.sites))
