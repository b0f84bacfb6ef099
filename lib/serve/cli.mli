(** The command-line flags of {!Cobegin_core.Pipeline.options}, built
    from its table ({!Cobegin_core.Pipeline.fields}): one flag per row,
    parsed and range-checked by the row's own parser, so the CLI refuses
    (cmdliner's usage error, exit 124) exactly the values a request is
    refused for. *)

open Cobegin_core

val options : ?only:string list -> unit -> Pipeline.options Cmdliner.Term.t
(** The record {!Pipeline.default_options} with every given flag
    applied.  [only] names the rows (by record field) whose flags the
    subcommand takes, all of them by default.
    @raise Invalid_argument when [only] names no row. *)
