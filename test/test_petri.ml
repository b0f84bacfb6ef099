(* Petri-net substrate: semantics, reachability, Valmari stubborn sets. *)

open Cobegin_petri
open Helpers

let tiny_net () =
  (* p0 --t0--> p1 --t1--> p2, independent q0 --u0--> q1 *)
  let b = Net.Builder.create () in
  let p0 = Net.Builder.add_place b "p0" 1 in
  let p1 = Net.Builder.add_place b "p1" 0 in
  let p2 = Net.Builder.add_place b "p2" 0 in
  let q0 = Net.Builder.add_place b "q0" 1 in
  let q1 = Net.Builder.add_place b "q1" 0 in
  ignore (Net.Builder.add_transition b "t0" ~pre:[ (p0, 1) ] ~post:[ (p1, 1) ]);
  ignore (Net.Builder.add_transition b "t1" ~pre:[ (p1, 1) ] ~post:[ (p2, 1) ]);
  ignore (Net.Builder.add_transition b "u0" ~pre:[ (q0, 1) ] ~post:[ (q1, 1) ]);
  Net.Builder.build b

let unit_tests =
  [
    case "enabling and firing" (fun () ->
        let net = tiny_net () in
        let m = Net.initial_marking net in
        let t0 = Net.transition net 0 in
        check_bool "t0 enabled" true (Net.enabled m t0);
        let m' = Net.fire m t0 in
        check_int "token moved" 1 m'.(1);
        check_int "source emptied" 0 m'.(0));
    case "firing disabled transition is rejected" (fun () ->
        let net = tiny_net () in
        let m = Net.initial_marking net in
        let t1 = Net.transition net 1 in
        check_bool "disabled" false (Net.enabled m t1);
        match Net.fire m t1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    case "full reachability of the tiny net" (fun () ->
        let r = Reach.full (tiny_net ()) in
        (* 3 positions for p × 2 for q = 6 markings *)
        check_int "states" 6 r.Reach.stats.Reach.states;
        check_int "deadlocks" 1 r.Reach.stats.Reach.deadlocks);
    case "stubborn reachability reaches the same deadlock" (fun () ->
        let f = Reach.full (tiny_net ()) in
        let s = Reach.stubborn (tiny_net ()) in
        check_bool "fewer or equal states" true
          (s.Reach.stats.Reach.states <= f.Reach.stats.Reach.states);
        check_bool "same deadlocks" true
          (List.sort compare (List.map Array.to_list f.Reach.deadlock_markings)
          = List.sort compare (List.map Array.to_list s.Reach.deadlock_markings)));
    case "weighted arcs" (fun () ->
        let b = Net.Builder.create () in
        let p = Net.Builder.add_place b "p" 3 in
        let q = Net.Builder.add_place b "q" 0 in
        ignore
          (Net.Builder.add_transition b "t" ~pre:[ (p, 2) ] ~post:[ (q, 1) ]);
        let net = Net.Builder.build b in
        let r = Reach.full net in
        (* 3 tokens -> fire once -> 1 token left, disabled: 2 states *)
        check_int "states" 2 r.Reach.stats.Reach.states);
  ]

let philosophers_tests =
  [
    case "philosophers net has the circular-wait deadlock" (fun () ->
        let r = Reach.full (Cobegin_models.Philosophers.net 3) in
        check_int "exactly one deadlock" 1 r.Reach.stats.Reach.deadlocks);
    case "ordered philosophers never deadlock" (fun () ->
        let r = Reach.full (Cobegin_models.Philosophers.net_ordered 3) in
        check_int "none" 0 r.Reach.stats.Reach.deadlocks);
    case "stubborn preserves the philosophers deadlock (n = 2..5)" (fun () ->
        List.iter
          (fun n ->
            let net = Cobegin_models.Philosophers.net n in
            let f = Reach.full net in
            let s = Reach.stubborn net in
            check_int
              (Printf.sprintf "n=%d deadlocks" n)
              f.Reach.stats.Reach.deadlocks s.Reach.stats.Reach.deadlocks;
            check_bool
              (Printf.sprintf "n=%d reduced" n)
              true
              (s.Reach.stats.Reach.states <= f.Reach.stats.Reach.states))
          [ 2; 3; 4; 5 ]);
    case "stubborn reduction grows with n" (fun () ->
        (* the ratio full/stubborn must increase from n=3 to n=6 —
           the shape of the exponential-vs-polynomial claim *)
        let ratio n =
          let net = Cobegin_models.Philosophers.net n in
          let f = Reach.full net in
          let s = Reach.stubborn net in
          float_of_int f.Reach.stats.Reach.states
          /. float_of_int s.Reach.stats.Reach.states
        in
        check_bool "ratio increases" true (ratio 6 > ratio 3));
  ]

(* Random 1-safe-ish nets: stubborn exploration preserves deadlocks. *)
let random_net_gen =
  let open QCheck2.Gen in
  let* nplaces = int_range 3 6 in
  let* ntrans = int_range 2 6 in
  let* marked = int_range 1 nplaces in
  let place = int_range 0 (nplaces - 1) in
  let* trans =
    list_size (return ntrans)
      (pair (list_size (1 -- 2) place) (list_size (0 -- 2) place))
  in
  return (nplaces, marked, trans)

let random_tests =
  [
    qtest ~count:60 "stubborn preserves deadlocks on random nets"
      random_net_gen
      (fun (nplaces, marked, trans) ->
        let b = Net.Builder.create () in
        for i = 0 to nplaces - 1 do
          ignore
            (Net.Builder.add_place b
               (Printf.sprintf "p%d" i)
               (if i < marked then 1 else 0))
        done;
        List.iteri
          (fun i (pre, post) ->
            let dedup l = List.sort_uniq compare l in
            let pre = dedup pre in
            (* token conservation: |post| <= |pre| keeps the net bounded *)
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | x :: tl -> x :: take (n - 1) tl
            in
            let post = take (List.length pre) (dedup post) in
            ignore
              (Net.Builder.add_transition b
                 (Printf.sprintf "t%d" i)
                 ~pre:(List.map (fun p -> (p, 1)) pre)
                 ~post:(List.map (fun p -> (p, 1)) post)))
          trans;
        let net = Net.Builder.build b in
        let f = Reach.full ~max_states:30_000 net in
        let s = Reach.stubborn ~max_states:30_000 net in
        if
          not
            (Budget.is_complete f.Reach.status
            && Budget.is_complete s.Reach.status)
        then true
        else
          List.sort compare (List.map Array.to_list f.Reach.deadlock_markings)
          = List.sort compare (List.map Array.to_list s.Reach.deadlock_markings));
  ]

(* Reachability on the exploration kernel: philosophers 2-6, full and
   stubborn, uncapped and at 10 and 100 states, against counts pinned
   from the worklist it replaced: (states, edges, deadlocks,
   max_frontier). *)
let kernel_tests =
  let pins =
    [
      (2, "full", None, (6, 8, 1, 3));
      (2, "full", Some 10, (6, 8, 1, 3));
      (2, "full", Some 100, (6, 8, 1, 3));
      (2, "stubborn", None, (6, 8, 1, 3));
      (2, "stubborn", Some 10, (6, 8, 1, 3));
      (2, "stubborn", Some 100, (6, 8, 1, 3));
      (3, "full", None, (14, 27, 1, 7));
      (3, "full", Some 10, (10, 12, 0, 6));
      (3, "full", Some 100, (14, 27, 1, 7));
      (3, "stubborn", None, (14, 21, 1, 6));
      (3, "stubborn", Some 10, (10, 9, 0, 5));
      (3, "stubborn", Some 100, (14, 21, 1, 6));
      (4, "full", None, (34, 88, 1, 14));
      (4, "full", Some 10, (10, 11, 0, 7));
      (4, "full", Some 100, (34, 88, 1, 14));
      (4, "stubborn", None, (26, 40, 1, 9));
      (4, "stubborn", Some 10, (10, 10, 0, 6));
      (4, "stubborn", Some 100, (26, 40, 1, 9));
      (5, "full", None, (82, 265, 1, 31));
      (5, "full", Some 10, (10, 10, 0, 5));
      (5, "full", Some 100, (82, 265, 1, 31));
      (5, "stubborn", None, (42, 65, 1, 11));
      (5, "stubborn", Some 10, (10, 9, 0, 6));
      (5, "stubborn", Some 100, (42, 65, 1, 11));
      (6, "full", None, (198, 768, 1, 67));
      (6, "full", Some 10, (10, 10, 0, 6));
      (6, "full", Some 100, (100, 213, 0, 59));
      (6, "stubborn", None, (62, 96, 1, 13));
      (6, "stubborn", Some 10, (10, 10, 0, 7));
      (6, "stubborn", Some 100, (62, 96, 1, 13));
    ]
  in
  [
    case "philosophers nets keep their pinned counts" (fun () ->
        List.iter
          (fun (n, strategy, max_states, counts) ->
            let net = Cobegin_models.Philosophers.net n in
            let r =
              if strategy = "full" then Reach.full ?max_states net
              else Reach.stubborn ?max_states net
            in
            let s = r.Reach.stats in
            check_bool
              (Printf.sprintf "phil%d %s %s" n strategy
                 (match max_states with
                 | None -> "uncapped"
                 | Some m -> string_of_int m))
              true
              (counts = Reach.(s.states, s.edges, s.deadlocks, s.max_frontier)))
          pins);
  ]

let suite = unit_tests @ philosophers_tests @ random_tests @ kernel_tests
