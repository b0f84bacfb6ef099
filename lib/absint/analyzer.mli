(** The numeric domains, listed once, and a domain-agnostic driver of
    the abstract machine whose result ({!Alog.t} + counts) feeds the
    analyses of Cobegin_analysis unchanged. *)

open Cobegin_domains

(** The numeric domain of the abstract values (paper section 3: each
    choice induces a different analysis). *)
type domain = Intervals | Constants | Signs | Parities | Interval_parity

type row = {
  domain : domain;
  name : string;
      (** stable ASCII spelling: reports, [-e abstract/NAME],
          [interfere --domain NAME] *)
  display : string;  (** text summaries, e.g. ["interval×parity"] *)
  aliases : string list;  (** further spellings {!domain_of_string} takes *)
  lattice : (module Lattice.NUMERIC);
      (** what both engines are instantiated with *)
}

val domains : row list
(** One row per domain, in declaration order. *)

val domain_name : domain -> string
val lattice : domain -> (module Lattice.NUMERIC)
val pp_domain : Format.formatter -> domain -> unit

val domain_of_string : string -> domain option
(** A row's [name] or one of its [aliases], case-sensitive. *)

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
  ?max_configs:int ->
  ?budget:Budget.t ->
  ?k_pstring:int ->
  ?max_call_depth:int ->
  Cobegin_lang.Ast.program ->
  summary
(** Run the abstract machine, [Machine.Make] applied to the domain's
    [lattice].  Defaults: intervals, Control folding, k_pstring = 8,
    call depth 64; joins into a key become widenings after
    {!Machine.widen_after} (3) growing joins.
    [budget] (which subsumes [max_configs]) bounds the run; exhaustion
    never raises — the summary comes back with its partial counts, the
    queued terminals drained in, and [status = Truncated _]. *)
