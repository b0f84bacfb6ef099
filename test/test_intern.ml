(* Hash-consed digests (Intern / Config.intern): equality semantics
   across interleavings, digest-vs-repr cardinality, distribution of the
   full-width hash, the truncated-generic-hash regressions, and the laws
   of the cached process, store and environment hashes. *)

open Cobegin_semantics
open Helpers

let diamond_src =
  "proc main() { var x = 0; var y = 0; cobegin { x = 1; } { y = 2; } \
   coend; }"

(* Step through the sequential prefix until several processes run. *)
let rec advance ctx c =
  match Step.enabled_processes ctx c with
  | [ p ] when Config.num_procs c = 1 -> advance ctx (fst (Step.fire ctx c p))
  | ps -> (c, ps)

let fire_pid ctx c pid =
  let p =
    List.find
      (fun (q : Proc.t) -> q.Proc.pid = pid)
      (Step.enabled_processes ctx c)
  in
  fst (Step.fire ctx c p)

(* Manual BFS that keys the visited set by [Config.repr] (ground truth)
   and inserts every newly visited configuration's digest on the side:
   equal cardinality means digests are injective on distinct reprs.
   [cap] bounds the visited reprs; the two sets still cover the same
   configurations. *)
let digest st c = snd (Config.intern st c)

let bfs_digests ?(model = Step.Sc) ?(cap = max_int) prog =
  let ctx = Step.make_ctx ~model prog in
  let st = Intern.create () in
  let reprs = Hashtbl.create 64 in
  let digests = Config.Digest_tbl.create 64 in
  let queue = Queue.create () in
  let visit c =
    let r = Config.repr c in
    if Hashtbl.length reprs < cap && not (Hashtbl.mem reprs r) then begin
      Hashtbl.replace reprs r ();
      Config.Digest_tbl.replace digests (digest st c) ();
      Queue.add c queue
    end
  in
  visit (Step.init ctx);
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    List.iter
      (fun a -> visit (fst (Step.fire_action ctx c a)))
      (Step.enabled_actions ctx c)
  done;
  ( Hashtbl.length reprs,
    Config.Digest_tbl.length digests,
    Config.Digest_tbl.fold (fun d () acc -> d :: acc) digests [] )

let digest_tests =
  [
    case "two interleavings of independent writes reach equal digests"
      (fun () ->
        let ctx = ctx_of diamond_src in
        let c, ps = advance ctx (Step.init ctx) in
        match ps with
        | p1 :: p2 :: _ ->
            let c12 = fire_pid ctx (fire_pid ctx c p1.Proc.pid) p2.Proc.pid in
            let c21 = fire_pid ctx (fire_pid ctx c p2.Proc.pid) p1.Proc.pid in
            let st = Intern.create () in
            let pooled12, d12 = Config.intern st c12 in
            let pooled21, d21 = Config.intern st c21 in
            check_bool "reprs equal (ground truth)" true
              (Config.repr c12 = Config.repr c21);
            check_bool "digests equal" true (Config.digest_equal d12 d21);
            check_int "hashes equal" (Config.digest_hash d12)
              (Config.digest_hash d21);
            check_bool "the second is rebuilt from the first's processes"
              true
              (Config.PidMap.equal ( == ) pooled12.Config.procs
                 pooled21.Config.procs)
        | _ -> Alcotest.fail "expected two forked processes");
    case "digest cardinality matches repr cardinality (corpus, sc/tso/pso)"
      (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun model ->
                let nr, nd, _ = bfs_digests ~model ~cap:1500 (parse src) in
                check_int
                  (Printf.sprintf "%s under %s: cardinality" name
                     (Step.model_name model))
                  nr nd)
              [ Step.Sc; Step.Tso; Step.Pso ])
          Cobegin_models.Corpus.all);
    qtest ~count:30 "digest cardinality matches repr cardinality (random)"
      seed_gen (fun seed ->
        let nr, nd, _ = bfs_digests ~cap:1500 (random_program seed) in
        nr = nd);
    case "interning is idempotent across re-serialization" (fun () ->
        let ctx = ctx_of diamond_src in
        let c0 = Step.init ctx in
        let st = Intern.create () in
        List.iter
          (fun p ->
            let p1, id1 = Intern.proc st p in
            let p2, id2 = Intern.proc st (Proc.update p) in
            check_int "same proc id" id1 id2;
            check_bool "the first instance stays pooled" true
              (p1 == p && p2 == p))
          (Config.processes c0);
        check_int "same store id"
          (snd (Intern.store st c0.Config.store))
          (snd (Intern.store st c0.Config.store));
        check_int "error None is -1" (-1) (Intern.error_id st None);
        check_bool "pools stay small" true (Intern.distinct_procs st <= 1))
  ]

(* Interning a successor from its parent must give what interning it
   from scratch gives: the same digest, and the same pooled processes,
   cell map and counter map.  The parent goes first, so a component it
   wrongly kept the parent's id for shows as a different digest. *)
let same_from_parent st parent c' =
  let from_parent, d1 = Config.intern st ~parent c' in
  let from_scratch, d2 = Config.intern st c' in
  Config.digest_equal d1 d2
  && Config.digest_hash d1 = Config.digest_hash d2
  && Config.PidMap.equal ( == ) from_parent.Config.procs
       from_scratch.Config.procs
  && Store.same_cells from_parent.Config.store from_scratch.Config.store
  && from_parent.Config.counters == from_scratch.Config.counters

let all_from_parent ?model ?cap prog =
  let ok = ref true and n = ref 0 in
  iter_transitions ?model ?cap prog (fun st parent c' ->
      incr n;
      if not (same_from_parent st parent c') then ok := false);
  (!ok, !n)

let parent_tests =
  [
    case "interning from the parent equals interning from scratch (corpus, \
          sc/tso/pso)" (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun model ->
                let ok, n = all_from_parent ~model (parse src) in
                check_bool
                  (Printf.sprintf "%s under %s: %d transitions" name
                     (Step.model_name model) n)
                  true ok)
              [ Step.Sc; Step.Tso; Step.Pso ])
          Cobegin_models.Corpus.all);
    qtest ~count:30 "interning from the parent equals interning from scratch \
                     (random)" seed_gen (fun seed ->
        fst (all_from_parent ~cap:1500 (random_program seed)));
  ]

let distribution_tests =
  [
    case "full-width hash spreads the philosophers state space" (fun () ->
        let _, n, digests =
          bfs_digests (parse (Cobegin_models.Philosophers.program 3))
        in
        let m =
          let rec up k = if k >= 2 * n then k else up (2 * k) in
          up 64
        in
        let buckets = Array.make m 0 in
        List.iter
          (fun d ->
            let i = Config.digest_hash d land (m - 1) in
            buckets.(i) <- buckets.(i) + 1)
          digests;
        let worst = Array.fold_left max 0 buckets in
        (* at load factor <= 1/2 a healthy hash keeps chains tiny; the
           truncated generic hash produced chains of hundreds here *)
        check_bool
          (Printf.sprintf "max bucket %d <= 8 over %d states" worst n)
          true (worst <= 8));
    case "marking hash is sensitive beyond the generic-hash horizon"
      (fun () ->
        let a = Array.make 20 1 in
        let b = Array.copy a in
        b.(15) <- 2;
        check_bool "generic hash collides (the bug)" true
          (Hashtbl.hash (Array.to_list a) = Hashtbl.hash (Array.to_list b));
        check_bool "full-width hash differs" true
          (Cobegin_hash.hash_int_array a <> Cobegin_hash.hash_int_array b));
  ]

(* The cached and maintained hashes must equal the hash of a value
   built fresh from the same fields, however the value was reached. *)
let loc_of i =
  { Value.l_pid = [ (i mod 3, 0) ]; l_site = i; l_seq = i / 2; l_off = 0 }

let value_of i =
  match i mod 4 with
  | 0 -> Value.Vint (i - 7)
  | 1 -> Value.Vbool (i mod 8 = 1)
  | 2 -> Value.Vloc (loc_of (i / 4))
  | _ -> Value.Vfun (Printf.sprintf "f%d" i)

type store_op = Set of int * int | Alloc of int * int | Free of int list

let store_op_gen =
  let open QCheck2.Gen in
  let cell = int_range 0 11 and v = int_range 0 40 in
  oneof
    [
      map2 (fun l x -> Set (l, x)) cell v;
      map2 (fun l x -> Alloc (l, x)) cell v;
      map (fun ls -> Free ls) (list_size (int_range 0 3) cell);
    ]

let apply_store_op st = function
  | Set (l, x) -> Store.set (loc_of l) (value_of x) st
  | Alloc (l, x) ->
      Store.alloc ~heap:(x mod 2 = 0) ~birth:Pstring.empty (loc_of l)
        (value_of x) st
  | Free ls -> Store.free (Value.LocSet.of_list (List.map loc_of ls)) st

(* Processes: random fields, random update sequences.  Statements come
   from a parsed program so items carry real labels. *)
let stmts =
  Cobegin_lang.Ast.fold_program
    (fun acc s -> s :: acc)
    [] (parse Cobegin_models.Figures.fig5)
  |> Array.of_list

let env_gen =
  let open QCheck2.Gen in
  map
    (List.fold_left
       (fun e (x, l) -> Env.bind (Printf.sprintf "v%d" x) (loc_of l) e)
       Env.empty)
    (list_size (int_range 0 4) (pair (int_range 0 5) (int_range 0 11)))

let item_gen =
  let open QCheck2.Gen in
  oneof
    [
      map
        (fun i -> Proc.Istmt stmts.(i))
        (int_range 0 (Array.length stmts - 1));
      map (fun e -> Proc.Ipop e) env_gen;
      map2
        (fun e site ->
          Proc.Iret
            {
              dest =
                (if site mod 2 = 0 then None
                 else Some (Cobegin_lang.Ast.Lvar "x"));
              saved_env = e;
              site;
            })
        env_gen (int_range 0 5);
      map
        (fun k ->
          Proc.Ijoin
            { cob = k; children = List.init k (fun i -> [ (k, i) ]) })
        (int_range 0 3);
    ]

let pstr_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 3)
    (map2
       (fun k inst ->
         if k mod 2 = 0 then
           Pstring.Fcall { proc = Printf.sprintf "p%d" k; site = k; inst }
         else Pstring.Fbranch { cob = k; idx = k mod 3; inst })
       (int_range 0 5) (int_range 0 3))

let buf_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 3)
    (map2 (fun l x -> (loc_of l, value_of x)) (int_range 0 11) (int_range 0 40))

(* One update: each field replaced or kept. *)
let update_gen =
  let open QCheck2.Gen in
  let field g = option g in
  map
    (fun (env, stack, pstr, buf) p -> Proc.update ?env ?stack ?pstr ?buf p)
    (quad (field env_gen)
       (field (list_size (int_range 0 4) item_gen))
       (field pstr_gen) (field buf_gen))

let fresh_proc (p : Proc.t) =
  Proc.make ~buf:p.Proc.buf ~pid:p.Proc.pid ~env:p.Proc.env
    ~stack:p.Proc.stack ~pstr:p.Proc.pstr ()

let hash_law_tests =
  [
    qtest ~count:300 "a maintained store hash equals a fresh store's"
      QCheck2.Gen.(list_size (int_range 0 30) store_op_gen)
      (fun ops ->
        let st = List.fold_left apply_store_op Store.empty ops in
        let fresh order =
          List.fold_left
            (fun acc (l, v) -> Store.alloc ~birth:Pstring.empty l v acc)
            Store.empty (order (Store.bindings st))
        in
        let forward = fresh Fun.id and backward = fresh List.rev in
        Store.hash st = Store.hash forward
        && Store.hash st = Store.hash backward
        && Store.equal st forward && Store.equal st backward);
    qtest ~count:300 "an updated process hashes like a fresh Proc.make"
      QCheck2.Gen.(
        pair
          (map
             (fun (env, stack, pstr, buf) ->
               Proc.make ~buf ~pid:[ (1, 0) ] ~env ~stack ~pstr ())
             (quad env_gen (list_size (int_range 0 4) item_gen) pstr_gen
                buf_gen))
          (list_size (int_range 1 6) update_gen))
      (fun (p0, updates) ->
        (* force the cached hash before every update, so a stale cache
           carried over by the updater would show *)
        let p =
          List.fold_left
            (fun p u ->
              ignore (Proc.hash p : int);
              u p)
            p0 updates
        in
        Proc.hash p = Proc.hash (fresh_proc p) && Proc.equal p (fresh_proc p));
    case "an environment's hash follows rebinding" (fun () ->
        let l1 = loc_of 1 and l2 = loc_of 2 in
        let a = Env.bind "x" l2 (Env.bind "x" l1 (Env.bind "y" l1 Env.empty)) in
        let b = Env.bind "x" l2 (Env.bind "y" l1 Env.empty) in
        check_bool "equal" true (Env.equal a b);
        check_int "same hash" (Env.hash a) (Env.hash b));
  ]

let repr_audit_tests =
  [
    case "statement labels stay unique across the coarsened corpus"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let p = Cobegin_trans.Coarsen.program (parse src) in
            let ls = Cobegin_lang.Ast.labels p in
            check_int
              (name ^ ": labels unique after coarsening")
              (List.length ls)
              (List.length (List.sort_uniq compare ls)))
          Cobegin_models.Corpus.all);
    case "pending returns distinguish call site and destination" (fun () ->
        let open Cobegin_lang in
        let mk ~site ~dest =
          Proc.item_repr (Proc.Iret { dest; saved_env = Env.empty; site })
        in
        check_bool "sites distinguish" true
          (mk ~site:1 ~dest:None <> mk ~site:2 ~dest:None);
        check_bool "destinations distinguish" true
          (mk ~site:1 ~dest:(Some (Ast.Lvar "x"))
          <> mk ~site:1 ~dest:(Some (Ast.Lvar "y")));
        check_bool "missing vs present destination" true
          (mk ~site:1 ~dest:None <> mk ~site:1 ~dest:(Some (Ast.Lvar "x"))));
  ]

let suite =
  digest_tests @ parent_tests @ distribution_tests @ hash_law_tests
  @ repr_audit_tests
