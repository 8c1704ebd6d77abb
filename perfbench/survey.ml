(* Failure survey of one random population, the source of [Vetted].

     survey.exe storage-free|parked

   plans every member of the family in process, exactly as the
   submit-cold check does (synthesize, optimize, validate, converged),
   and prints the OCaml array of the members that fail, with one
   comment line per failure.  Runs for several minutes; run it again,
   and update vetted.ml, only when the generator changes. *)

let () =
  let family =
    match Sys.argv with
    | [| _; "storage-free" |] -> Perfbench.Gen.Storage_free
    | [| _; "parked" |] -> Perfbench.Gen.Parked
    | _ ->
      prerr_endline "usage: survey.exe storage-free|parked";
      exit 2
  in
  let failing = ref [] in
  for index = 0 to Perfbench.Inputs.universe family - 1 do
    let input = Perfbench.Inputs.random family index in
    match Perfbench.Pipeline.plan input.Perfbench.Inputs.spec with
    | Error m -> failing := (index, m) :: !failing
    | Ok (outcome, _) -> (
      match Perfbench.Pipeline.validate outcome with
      | Ok () -> ()
      | Error m -> failing := (index, m) :: !failing)
  done;
  let failing = List.rev !failing in
  List.iter (fun (i, m) -> Printf.printf "(* %d: %s *)\n" i m) failing;
  Printf.printf "[| %s |]\n"
    (String.concat "; " (List.map (fun (i, _) -> string_of_int i) failing))
