open Cmdliner
open Cobegin_core

let term (f : Pipeline.field) =
  match f.read with
  | None ->
      let update on o =
        match f.parse (Pipeline.Bool on) with Some set -> set o | None -> o
      in
      Term.(const update $ Arg.(value & flag & info f.flags ~doc:f.doc))
  | Some read ->
      let parse s =
        match Option.bind (read s) f.parse with
        | Some set -> Ok set
        | None ->
            Error (Printf.sprintf "invalid value '%s', expected %s" s f.expect)
      in
      (* the printer is never called: an absent flag shows [absent] *)
      let setter =
        Arg.conv' (parse, fun ppf _ -> Format.pp_print_string ppf f.docv)
      in
      let absent =
        Option.map Pipeline.string_of_value (f.print Pipeline.default_options)
      in
      let update set o = match set with Some set -> set o | None -> o in
      Term.(
        const update
        $ Arg.(
            value
            & opt (some setter) None
            & info f.flags ~docv:f.docv ~doc:f.doc ?absent))

let options ?only () =
  let field n =
    let named (f : Pipeline.field) = f.name = n in
    match List.find_opt named Pipeline.fields with
    | Some f -> f
    | None -> invalid_arg ("Cli.options: no option " ^ n)
  in
  List.fold_left
    (fun acc f -> Term.(const (fun o update -> update o) $ acc $ term f))
    (Term.const Pipeline.default_options)
    (match only with None -> Pipeline.fields | Some ns -> List.map field ns)

(* [c]'s own reading of "0" is the bound: a polymorphic comparison,
   exact on the ints and floats these flags take *)
let positive c =
  let read = Arg.conv_parser c in
  let zero =
    match read "0" with Ok z -> z | Error _ -> invalid_arg "Cli.positive"
  in
  let parse s =
    match read s with
    | Ok x when x > zero -> Ok x
    | Ok _ ->
        Error
          (Printf.sprintf "invalid value '%s', expected a positive number" s)
    | Error (`Msg e) -> Error e
  in
  Arg.conv' (parse, Arg.conv_printer c)
