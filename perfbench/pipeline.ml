(* The planning pipeline of [Pdw_service.Engine.plan], called layer by
   layer through each layer's public function, so the traced run can
   time every layer and the checks can inspect the outcome itself, not
   only its JSON. *)

module Protocol = Pdw_service.Protocol
module Benchmarks = Pdw_assay.Benchmarks
module Assay_parser = Pdw_assay.Assay_parser
module Layout_builder = Pdw_biochip.Layout_builder
module Synthesis = Pdw_synth.Synthesis
module Pdw = Pdw_wash.Pdw
module Dawo = Pdw_wash.Dawo
module Wash_plan = Pdw_wash.Wash_plan
module Json_export = Pdw_wash.Json_export
module Validate = Pdw_check.Validate

(* Wraps each layer call; the traced run records a span per call. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

let resolve = function
  | Protocol.Benchmark name -> (
    match Benchmarks.find name with
    | Some b -> (name, b)
    | None -> invalid_arg (Printf.sprintf "unknown benchmark %S" name))
  | Protocol.Inline text -> (
    match Assay_parser.parse text with
    | Ok b -> ("", b)
    | Error m -> invalid_arg ("assay parse error: " ^ m))

(* As in the engine: the motivating example runs on the hand-built
   Fig. 2(a) chip, everything else on a freshly synthesized one. *)
let synthesize (name, b) =
  if String.lowercase_ascii name = "motivating" then
    Synthesis.synthesize ~layout:(Layout_builder.fig2_layout ()) b
  else Synthesis.synthesize b

let export outcome = Json_export.to_string (Json_export.outcome outcome)

(* [plan spec] is the outcome and its exported bytes, or the planner's
   exception as text. *)
let plan ?(timer = untimed) (spec : Protocol.spec) =
  match
    let s = timer.time "synthesize" (fun () -> synthesize (resolve spec.source)) in
    let outcome =
      timer.time "optimize" (fun () ->
          match spec.method_ with
          | `Pdw -> Pdw.optimize ~config:spec.config s
          | `Dawo -> Dawo.optimize s)
    in
    (outcome, timer.time "export" (fun () -> export outcome))
  with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let dawo (spec : Protocol.spec) = Dawo.optimize (synthesize (resolve spec.source))

(* All seven checkers of [Validate], plus convergence. *)
let validate (outcome : Wash_plan.outcome) =
  let report = Validate.outcome outcome in
  match report.Validate.findings with
  | f :: _ ->
    Error
      (Printf.sprintf "%d finding(s), first [%s] %s"
         (List.length report.findings) f.Validate.check f.detail)
  | [] ->
    if outcome.converged then Ok () else Error "plan did not converge"
