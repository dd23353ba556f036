let validated prog =
  match Ir.validate prog with
  | Ok inputs -> inputs
  | Error msg -> invalid_arg (Printf.sprintf "Compile: invalid program: %s" msg)

let analyze ?(target = Analysis.default_target) prog =
  ignore (validated prog);
  Analysis.analyze ~target prog

let compile ?(target = Analysis.default_target) ?conservative ~variant prog =
  let inputs = validated prog in
  Codegen.compile ?conservative ~variant ~inputs (Analysis.analyze ~target prog)

let all_variants = [ Pir.V_original; Pir.V_prefetch; Pir.V_release ]
