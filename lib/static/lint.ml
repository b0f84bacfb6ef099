(* The static concurrency lint suite: one entry point bundling the MHP
   relation, the lockset race detector, the lock-order deadlock scan and
   three cheap diagnostics into a canonical, position-sorted report.

   The cheap lints:

     - double-acquire: [lock(x)] at a site where the executing process
       already holds x on every path since its own fork
       ([Lockset.local_must_held]) — the test-and-set can never succeed,
       the process blocks forever.  An error, not a warning.

     - release-unheld: [unlock(x)] at a site where x is not possibly
       held ([Lockset.may_held]) on any path — either dead code or a
       lock-discipline bug that can void someone else's critical
       section.

     - await-no-writer: an [await] whose condition reads at least one
       variable, where no branch of any enclosing cobegin can write any
       of those variables (by visible name, or through a pointer for
       address-taken ones — branch summaries come from
       [Access.summary], closing over callees).  Once the
       condition is false the process can never be woken.  The check is
       conservative in the quiet direction: any syntactic parallel
       writer silences it, even one that never executes. *)

open Cobegin_lang
open Ast
module SS = Ast.StringSet

type result = {
  races : Lockset.race list;
  cycles : Deadlock.cycle list;
  findings : Report.finding list;  (** canonical order, all rules *)
}

let finding ?label ?other ~rule ~severity fmt =
  Format.kasprintf
    (fun msg ->
      {
        Report.f_rule = rule;
        f_severity = severity;
        f_label = label;
        f_other = other;
        f_message = msg;
      })
    fmt

let race_findings races =
  List.map
    (fun (r : Lockset.race) ->
      finding ~label:r.r_stmt1 ~other:r.r_stmt2 ~rule:"static-race"
        ~severity:Report.Warning "possible %s race on %s with s%d"
        (if r.r_ww then "write/write" else "read/write")
        r.r_what r.r_stmt2)
    races

let cycle_findings cycles =
  List.map
    (fun (c : Deadlock.cycle) ->
      let label = match c.sites with l :: _ -> Some l | [] -> None in
      finding ?label ~rule:"lock-order-cycle" ~severity:Report.Warning
        "potential deadlock: %a" Deadlock.pp_cycle c)
    cycles

let lock_findings prog ls =
  fold_program
    (fun acc s ->
      match s.kind with
      | Sacquire x when SS.mem x (Lockset.local_must_held ls s.label) ->
          finding ~label:s.label ~rule:"double-acquire" ~severity:Report.Error
            "lock(%s) while already holding it: the process blocks forever" x
          :: acc
      | Srelease x when not (SS.mem x (Lockset.may_held ls s.label)) ->
          finding ~label:s.label ~rule:"release-unheld"
            ~severity:Report.Warning
            "unlock(%s) without a matching lock on any path" x
          :: acc
      | _ -> acc)
    [] prog

let await_findings (mhp : Mhp.t) =
  let prog = Mhp.program mhp in
  let addr_taken = Mhp.addr_taken mhp in
  (* every await in the program, with the variables its condition reads *)
  let awaits =
    fold_program
      (fun acc s ->
        match s.kind with
        | Sawait _ -> (s.label, (Access.action s).rvars) :: acc
        | _ -> acc)
      [] prog
  in
  let branch_summary (b : Mhp.branch) =
    Access.summary (Mhp.access mhp) b.b_stmt
  in
  (* a writer for [vars] among the branches of context [c]: a visible
     name written by some branch, or an address-taken name while some
     branch may write through a pointer *)
  let has_writer (c : Mhp.context) vars =
    List.exists
      (fun b ->
        let sum = branch_summary b in
        SS.exists
          (fun v ->
            (SS.mem v c.c_visible && SS.mem v sum.Access.wvars)
            || (SS.mem v addr_taken && sum.Access.mem_write))
          vars)
      c.c_branches
  in
  let contexts = Mhp.contexts mhp in
  let in_branch label (b : Mhp.branch) =
    List.exists (fun s -> s.Mhp.s_label = label) b.Mhp.b_sites
  in
  List.filter_map
    (fun (label, vars) ->
      if SS.is_empty vars then None
      else
        let enclosing =
          List.filter
            (fun c -> List.exists (in_branch label) c.Mhp.c_branches)
            contexts
        in
        if List.exists (fun c -> has_writer c vars) enclosing then None
        else
          Some
            (finding ~label ~rule:"await-no-writer" ~severity:Report.Warning
               "await reads {%s} but no parallel process writes them"
               (String.concat ", " (SS.elements vars))))
    awaits

let run (ls : Lockset.t) : result =
  let mhp = Lockset.mhp ls in
  let prog = Mhp.program mhp in
  let races = Lockset.races ls in
  let cycles = Deadlock.find ls in
  let findings =
    Report.sort
      (race_findings races @ cycle_findings cycles @ lock_findings prog ls
     @ await_findings mhp)
  in
  { races; cycles; findings }

let pp ppf r = Report.pp ppf r.findings
