(** Ready-made instantiations of the abstract machine, and a
    domain-agnostic driver whose result ({!Alog.t} + counts) feeds the
    analyses of Cobegin_analysis unchanged. *)

open Cobegin_domains

module Interval_machine : module type of Machine.Make (Interval)
module Const_machine : module type of Machine.Make (Const)
module Sign_machine : module type of Machine.Make (Sign)
module Parity_machine : module type of Machine.Make (Parity)
module Int_parity_machine : module type of Machine.Make (Int_parity)

(** The numeric domain of the abstract values (paper section 3: each
    choice induces a different analysis). *)
type domain = Intervals | Constants | Signs | Parities | Interval_parity

val pp_domain : Format.formatter -> domain -> unit
val domain_of_string : string -> domain option

type summary = {
  domain : domain;
  folding : Machine.folding;
  abstract_configs : int;  (** distinct abstract configurations *)
  revisits : int;  (** joins into an existing key *)
  widenings : int;
  max_frontier : int;  (** peak size of the worklist *)
  finals : int;  (** abstract final stores *)
  errors : int;  (** possible runtime failures (may-analysis) *)
  transitions : int;
      (** abstract shapes fired: what the budget's transition limit
          counts *)
  status : Budget.status;  (** [Truncated _] when a budget fired *)
  log : Alog.t;
}

val pp_summary : Format.formatter -> summary -> unit

val analyze :
  ?domain:domain ->
  ?folding:Machine.folding ->
  ?widen_after:int ->
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?k_pstring:int ->
  ?max_call_depth:int ->
  Cobegin_lang.Ast.program ->
  summary
(** Run the abstract machine.  Defaults: intervals, Control folding,
    widening after 3 revisits, k_pstring = 8, call depth 64.
    [budget] (which subsumes [max_configs]) bounds the run; exhaustion
    never raises — the summary comes back with its partial counts, the
    queued terminals drained in, and [status = Truncated _]. *)
