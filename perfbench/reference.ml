(* The benchmark's speed reference: a fixed amount of work of the kind the
   analyzer does (a breadth-first search over a synthetic interleaving
   space, states as int arrays in a hash table), run as a child process
   like an analyzer op.  It uses no library of the repository, so its cost
   is the same for every version of the analyzer; run.py times it between
   ops to see how fast the host is running at that moment.

   reference REPEATS   prints "STATES TRANSITIONS" of one search *)

let threads = 3
let steps = 11

let search () =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let start = Array.make (threads + 2) 0 in
  Hashtbl.replace seen start ();
  Queue.push start queue;
  let transitions = ref 0 in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    for t = 0 to threads - 1 do
      if s.(t) < steps then begin
        let s' = Array.copy s in
        s'.(t) <- s.(t) + 1;
        let shared = threads + (t land 1) in
        s'.(shared) <- ((s.(shared) * 3) + t + s.(t)) mod 5;
        incr transitions;
        if not (Hashtbl.mem seen s') then begin
          Hashtbl.replace seen s' ();
          Queue.push s' queue
        end
      end
    done
  done;
  (Hashtbl.length seen, !transitions)

let () =
  let repeats = try int_of_string Sys.argv.(1) with _ -> 1 in
  let r = ref (0, 0) in
  for _ = 1 to repeats do
    r := search ()
  done;
  Printf.printf "%d %d\n" (fst !r) (snd !r)
