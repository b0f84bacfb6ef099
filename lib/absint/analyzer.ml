(* The numeric domains, listed once, and a domain-agnostic driver of the
   abstract machine.  The analyses in Cobegin_analysis consume the
   [Alog.t] this produces, independent of the numeric domain chosen. *)

open Cobegin_domains

type domain = Intervals | Constants | Signs | Parities | Interval_parity

type row = {
  domain : domain;
  name : string;
  display : string;
  aliases : string list;
  lattice : (module Lattice.NUMERIC);
}

let domains =
  [
    { domain = Intervals; name = "intervals"; display = "intervals";
      aliases = [ "interval" ]; lattice = (module Interval) };
    { domain = Constants; name = "constants"; display = "constants";
      aliases = [ "const" ]; lattice = (module Const) };
    { domain = Signs; name = "signs"; display = "signs";
      aliases = [ "sign" ]; lattice = (module Sign) };
    { domain = Parities; name = "parity"; display = "parity";
      aliases = []; lattice = (module Parity) };
    { domain = Interval_parity; name = "interval-parity";
      display = "interval×parity"; aliases = [ "intparity" ];
      lattice = (module Int_parity) };
  ]

let row d = List.find (fun r -> r.domain = d) domains
let domain_name d = (row d).name
let lattice d = (row d).lattice
let pp_domain ppf d = Format.pp_print_string ppf (row d).display

let domain_of_string s =
  List.find_opt (fun r -> r.name = s || List.mem s r.aliases) domains
  |> Option.map (fun r -> r.domain)

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

let analyze ?(domain = Intervals) ?(folding = Machine.Control) ?max_configs
    ?budget ?(k_pstring = 8) ?(max_call_depth = 64)
    (prog : Cobegin_lang.Ast.program) : summary =
  let module N = (val lattice domain) in
  let module M = Machine.Make (N) in
  let ctx = M.make_ctx ~params:{ M.k_pstring; max_call_depth } prog in
  let r = M.explore ~folding ?max_configs ?budget ctx in
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
