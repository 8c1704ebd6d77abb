module Benchmarks = Pdw_assay.Benchmarks
module Assay_parser = Pdw_assay.Assay_parser
module Sequencing_graph = Pdw_assay.Sequencing_graph
module Layout_builder = Pdw_biochip.Layout_builder
module Synthesis = Pdw_synth.Synthesis
module Pdw = Pdw_wash.Pdw
module Dawo = Pdw_wash.Dawo
module Json_export = Pdw_wash.Json_export
module Trace = Pdw_obs.Trace
module Clock = Pdw_obs.Clock

let synthesize_benchmark name b =
  if String.lowercase_ascii name = "motivating" then
    Synthesis.synthesize ~layout:(Layout_builder.fig2_layout ()) b
  else Synthesis.synthesize b

(* A non-empty park set rewrites the assay before synthesis.  Bad ids
   and layouts too small to store the parked products are user input —
   [Sequencing_graph.mark_parked] and [Pdw_synth.Storage.allocate] both
   raise [Invalid_argument] — so they become typed [Error] replies, not
   worker crashes.  The empty-park path is untouched: a plain spec runs
   exactly the pre-storage pipeline (the inertness guarantee). *)
let park_benchmark park (b : Benchmarks.t) =
  { b with Benchmarks.graph = Sequencing_graph.mark_parked b.graph park }

let resolve ?(park = []) (source : Protocol.source) =
  let synthesize name b =
    if park = [] then Ok (synthesize_benchmark name b)
    else
      match synthesize_benchmark name (park_benchmark park b) with
      | s -> Ok s
      | exception Invalid_argument m ->
        Error (Printf.sprintf "park rejected: %s" m)
  in
  match source with
  | Protocol.Benchmark name -> (
    match Benchmarks.find name with
    | Some b -> synthesize name b
    | None -> Error (Printf.sprintf "unknown benchmark %S" name))
  | Protocol.Inline text -> (
    match Assay_parser.parse text with
    | Ok b -> synthesize "" b
    | Error m -> Error (Printf.sprintf "assay parse error: %s" m))

let plan_timed (spec : Protocol.spec) =
  Trace.with_span "service.plan" @@ fun () ->
  let t0 = Clock.now_ms () in
  match
    Trace.with_span "service.synthesize" (fun () ->
        resolve ~park:spec.Protocol.park spec.Protocol.source)
  with
  | Error _ as e -> (e, [ ("synthesize", Clock.elapsed_ms ~since:t0) ])
  | Ok s ->
    let t1 = Clock.now_ms () in
    let outcome =
      Trace.with_span "service.optimize" @@ fun () ->
      match spec.Protocol.method_ with
      | `Pdw -> Pdw.optimize ~config:spec.Protocol.config s
      | `Dawo -> Dawo.optimize s
    in
    let t2 = Clock.now_ms () in
    ( Ok (Json_export.to_string (Json_export.outcome outcome)),
      [ ("synthesize", t1 -. t0); ("optimize", t2 -. t1) ] )

let plan spec = fst (plan_timed spec)
