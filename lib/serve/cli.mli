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

val positive : 'a Cmdliner.Arg.conv -> 'a Cmdliner.Arg.conv
(** [positive c] reads what [c] reads ([Arg.int], [Arg.float]) and
    refuses zero, negatives and NaN with the usage error the table's
    rows give (exit 124).  For the numeric flags outside the table:
    serve's [-j] and [--cache-cap], explore's [--checkpoint-every] and
    [--checkpoint-secs]. *)
