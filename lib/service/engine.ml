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

(* A non-empty park set rewrites the assay before synthesis.  Bad ids
   and layouts too small to store the parked products are user input —
   [Sequencing_graph.mark_parked] and [Pdw_synth.Storage.allocate] both
   raise [Invalid_argument] — so they become typed [Error] replies, not
   worker crashes.  The empty-park path is untouched: a plain spec runs
   exactly the pre-storage pipeline (the inertness guarantee). *)
let synthesize (spec : Protocol.spec) =
  let park = spec.Protocol.park in
  let run name (b : Benchmarks.t) =
    let layout =
      if String.lowercase_ascii name = "motivating" then
        Some (Layout_builder.fig2_layout ())
      else None
    in
    if park = [] then Ok (Synthesis.synthesize ?layout b)
    else
      match
        Synthesis.synthesize ?layout
          { b with graph = Sequencing_graph.mark_parked b.graph park }
      with
      | s -> Ok s
      | exception Invalid_argument m ->
        Error (Printf.sprintf "park rejected: %s" m)
  in
  match spec.Protocol.source with
  | Protocol.Benchmark name -> (
    match Benchmarks.find name with
    | Some b -> run name b
    | None ->
      Error
        (Printf.sprintf "unknown benchmark %S (try one of: %s)" name
           (String.concat ", " (List.map fst (Benchmarks.named ())))))
  | Protocol.Inline text -> (
    match Assay_parser.parse text with
    | Ok b -> run "" b
    | Error m -> Error (Printf.sprintf "assay parse error: %s" m))

let optimize (spec : Protocol.spec) s =
  match spec.Protocol.method_ with
  | `Pdw -> Pdw.optimize ~config:spec.Protocol.config s
  | `Dawo -> Dawo.optimize s

let export outcome = Json_export.to_string (Json_export.outcome outcome)

let plan_timed spec =
  Trace.with_span "service.plan" @@ fun () ->
  let t0 = Clock.now_ms () in
  match Trace.with_span "service.synthesize" (fun () -> synthesize spec) with
  | Error _ as e -> (e, [ ("synthesize", Clock.elapsed_ms ~since:t0) ])
  | Ok s ->
    let t1 = Clock.now_ms () in
    let outcome =
      Trace.with_span "service.optimize" (fun () -> optimize spec s)
    in
    let t2 = Clock.now_ms () in
    (Ok (export outcome), [ ("synthesize", t1 -. t0); ("optimize", t2 -. t1) ])

let plan spec = fst (plan_timed spec)
