(* Ready-made instantiations of the abstract machine and a domain-agnostic
   driver.  The analyses in Cobegin_analysis consume the [Alog.t] this
   produces, independent of the numeric domain chosen. *)

open Cobegin_domains

module Interval_machine = Machine.Make (Interval)
module Const_machine = Machine.Make (Const)
module Sign_machine = Machine.Make (Sign)
module Parity_machine = Machine.Make (Parity)
module Int_parity_machine = Machine.Make (Int_parity)

type domain = Intervals | Constants | Signs | Parities | Interval_parity

let pp_domain ppf d =
  Format.pp_print_string ppf
    (match d with
    | Intervals -> "intervals"
    | Constants -> "constants"
    | Signs -> "signs"
    | Parities -> "parity"
    | Interval_parity -> "interval×parity")

let domain_of_string = function
  | "intervals" | "interval" -> Some Intervals
  | "constants" | "const" -> Some Constants
  | "signs" | "sign" -> Some Signs
  | "parity" -> Some Parities
  | "interval-parity" | "intparity" -> Some Interval_parity
  | _ -> None

(* Domain-independent result summary. *)
type summary = {
  domain : domain;
  folding : Machine.folding;
  abstract_configs : int;
  revisits : int;
  widenings : int;
  max_frontier : int;
  finals : int;
  errors : int;
  transitions : int;
  status : Budget.status;
  log : Alog.t;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "[%a/%a] abstract configurations=%d revisits=%d widenings=%d finals=%d errors=%d%a"
    pp_domain s.domain Machine.pp_folding s.folding s.abstract_configs
    s.revisits s.widenings s.finals s.errors
    (fun ppf -> function
      | Budget.Complete -> ()
      | st -> Format.fprintf ppf " %a" Budget.pp_status st)
    s.status

(* The one body every domain shares: [M] is that domain's machine. *)
module Run (N : Lattice.NUMERIC) (M : module type of Machine.Make (N)) =
struct
  let analyze ~domain ~folding ?widen_after ?max_configs ?budget ~k_pstring
      ~max_call_depth prog =
    let ctx = M.make_ctx ~params:{ M.k_pstring; max_call_depth } prog in
    let r = M.explore ~folding ?widen_after ?max_configs ?budget ctx in
    let s = r.M.stats in
    {
      domain;
      folding;
      abstract_configs = s.Kernel.configurations;
      revisits = r.M.revisits;
      widenings = r.M.widenings;
      max_frontier = s.max_frontier;
      finals = s.finals;
      errors = s.errors;
      transitions = s.transitions;
      status = r.M.status;
      log = r.M.log;
    }
end

let analyze ?(domain = Intervals) ?(folding = Machine.Control) ?widen_after
    ?max_configs ?budget ?(k_pstring = 8)
    ?(max_call_depth = 64) (prog : Cobegin_lang.Ast.program) : summary =
  let run =
    match domain with
    | Intervals ->
        let module R = Run (Interval) (Interval_machine) in
        R.analyze
    | Constants ->
        let module R = Run (Const) (Const_machine) in
        R.analyze
    | Signs ->
        let module R = Run (Sign) (Sign_machine) in
        R.analyze
    | Parities ->
        let module R = Run (Parity) (Parity_machine) in
        R.analyze
    | Interval_parity ->
        let module R = Run (Int_parity) (Int_parity_machine) in
        R.analyze
  in
  run ~domain ~folding ?widen_after ?max_configs ?budget ~k_pstring
    ~max_call_depth prog
