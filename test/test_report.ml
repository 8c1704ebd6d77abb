(* Tests for reporting (Report/Metrics formatting and arithmetic),
   planner diagnostics, and failure injection: layouts engineered so that
   wash planning cannot succeed must fail loudly, not silently. *)

module Coord = Pdw_geometry.Coord
module Fluid = Pdw_biochip.Fluid
module Device = Pdw_biochip.Device
module Port = Pdw_biochip.Port
module Layout_builder = Pdw_biochip.Layout_builder
module Operation = Pdw_assay.Operation
module Sequencing_graph = Pdw_assay.Sequencing_graph
module Benchmarks = Pdw_assay.Benchmarks
module Synthesis = Pdw_synth.Synthesis
module Pdw = Pdw_wash.Pdw
module Dawo = Pdw_wash.Dawo
module Wash_plan = Pdw_wash.Wash_plan
module Metrics = Pdw_wash.Metrics
module Report = Pdw_wash.Report

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else go (i + 1)
  in
  go 0

let test_improvement_arithmetic () =
  Alcotest.(check (float 1e-9)) "quarter off" 25.0
    (Report.improvement 4.0 3.0);
  Alcotest.(check (float 1e-9)) "no change" 0.0 (Report.improvement 5.0 5.0);
  Alcotest.(check (float 1e-9)) "zero denominator" 0.0
    (Report.improvement 0.0 3.0);
  Alcotest.(check (float 1e-9)) "regression is negative" (-50.0)
    (Report.improvement 2.0 3.0)

let pcr_row () =
  let b = Benchmarks.pcr () in
  let s = Synthesis.synthesize b in
  Report.row ~name:"PCR"
    ~device_count:(List.length b.Benchmarks.device_kinds)
    (Dawo.optimize s) (Pdw.optimize s)

let test_row_stats () =
  let row = pcr_row () in
  let o, d, e = row.Report.graph_stats in
  Alcotest.(check (list int)) "|O|/|D|/|E|" [ 7; 5; 15 ] [ o; d; e ]

let test_table_rendering () =
  let row = pcr_row () in
  let out = Format.asprintf "%a" (fun ppf r -> Report.print_table2 ppf [ r ]) row in
  Alcotest.(check bool) "has benchmark name" true (contains out "PCR");
  Alcotest.(check bool) "has header" true (contains out "Nw(D)");
  Alcotest.(check bool) "has average line" true (contains out "Average");
  let fig4 = Format.asprintf "%a" (fun ppf r -> Report.print_fig4 ppf [ r ]) row in
  Alcotest.(check bool) "fig4 title" true (contains fig4 "Fig. 4");
  let fig5 = Format.asprintf "%a" (fun ppf r -> Report.print_fig5 ppf [ r ]) row in
  Alcotest.(check bool) "fig5 title" true (contains fig5 "Fig. 5")

let test_metrics_weights () =
  (* The objective (Eq. 26) must respond linearly to the weights. *)
  let s = Synthesis.synthesize (Benchmarks.pcr ()) in
  let base = Pdw.optimize s in
  let m = base.Wash_plan.metrics in
  let heavy_n =
    (Pdw.optimize
       ~config:{ Pdw.default_config with alpha = 1.0; beta = 0.0; gamma = 0.0 }
       s)
      .Wash_plan.metrics
  in
  Alcotest.(check (float 1e-6)) "pure-alpha objective counts washes"
    (float_of_int heavy_n.Metrics.n_wash)
    heavy_n.Metrics.objective;
  Alcotest.(check bool) "default objective mixes all three" true
    (abs_float
       (m.Metrics.objective
       -. ((0.3 *. float_of_int m.Metrics.n_wash)
          +. (0.3 *. m.Metrics.l_wash_mm)
          +. (0.4 *. float_of_int m.Metrics.t_assay)))
    < 1e-6)

let test_demand_history_converges () =
  let s = Synthesis.synthesize (Benchmarks.pcr ()) in
  let o = Pdw.optimize s in
  (match List.rev o.Wash_plan.demand_history with
  | last :: _ -> Alcotest.(check int) "ends at zero demands" 0 last
  | [] -> Alcotest.fail "empty history");
  Alcotest.(check int) "history length = rounds + 1"
    (o.Wash_plan.rounds + 1)
    (List.length o.Wash_plan.demand_history)

let test_flow_path_table () =
  let layout = Pdw_biochip.Layout_builder.fig2_layout () in
  let s = Synthesis.synthesize ~layout (Benchmarks.motivating ()) in
  let o = Pdw.optimize s in
  let out =
    Format.asprintf "%a" Report.print_flow_paths o.Wash_plan.schedule
  in
  (* Transports, removals, disposals and washes all appear under their
     paper-notation tags, with named hops. *)
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " present") true (contains out tag))
    [ "#1 "; "*1 "; "$1 "; "w1 "; "in1"; "mixer"; " -> " ]

(* --- JSON export --- *)

module Json = Pdw_obs.Json
module Json_export = Pdw_wash.Json_export

let test_json_escaping () =
  Alcotest.(check string) "string escaping"
    "\"a\\\"b\\nc\"" (Json_export.to_string (Json.Str "a\"b\nc"));
  Alcotest.(check string) "null" "null" (Json_export.to_string Json.Null);
  Alcotest.(check string) "list" "[1,true]"
    (Json_export.to_string (Json.Arr [ Json.Int 1; Json.Bool true ]));
  Alcotest.(check string) "object" "{\"k\":1.0}"
    (Json_export.to_string (Json.Obj [ ("k", Json.Float 1.0) ]))

let test_json_outcome_structure () =
  let s = Synthesis.synthesize (Benchmarks.pcr ()) in
  let o = Pdw.optimize s in
  let out = Json_export.to_string (Json_export.outcome o) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (contains out ("\"" ^ field ^ "\"")))
    [
      "assay"; "num_ops"; "converged"; "metrics"; "n_wash"; "schedule";
      "entries"; "demands_per_round";
    ];
  (* Balanced braces and brackets — a cheap well-formedness check. *)
  let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 out in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

(* Failure injection: a chip with a dead-end chamber that gets
   contaminated and reused.  No simple flow-port -> waste-port path can
   pass through a degree-1 cell, so the planner must raise. *)
let dead_end_synthesis () =
  (* in -- + -- M -- + -- out        (main channel)
                 |
                 H                   (heater on a dead-end spur) *)
  let b = Layout_builder.create ~width:5 ~height:3 in
  let c = Coord.make in
  Layout_builder.channel b (c 1 0);
  Layout_builder.channel b (c 3 0);
  let _ = Layout_builder.add_device b ~kind:Device.Mixer ~name:"mixer" [ c 2 0 ] in
  let _ = Layout_builder.add_device b ~kind:Device.Heater ~name:"heater" [ c 2 1 ] in
  let _ = Layout_builder.add_port b ~kind:Port.Flow ~name:"in" (c 0 0) in
  let _ = Layout_builder.add_port b ~kind:Port.Waste ~name:"out" (c 4 0) in
  let layout = Layout_builder.build b in
  let node id kind duration inputs : Sequencing_graph.node =
    { op = Operation.make ~id ~kind ~duration (); inputs }
  in
  let reagent n = Sequencing_graph.From_reagent (Fluid.reagent n) in
  let graph =
    Sequencing_graph.make ~name:"deadend"
      [
        node 0 Operation.Mix 2 [ reagent "a"; reagent "b" ];
        node 1 Operation.Heat 2 [ Sequencing_graph.From_op 0 ];
        (* A second, different-fluid pass through the heater forces a
           wash demand on the dead-end chamber. *)
        node 2 Operation.Mix 2 [ reagent "c"; reagent "d" ];
        node 3 Operation.Heat 2 [ Sequencing_graph.From_op 2 ];
      ]
  in
  Synthesis.synthesize ~layout
    { Benchmarks.graph; device_kinds = [ Device.Mixer; Device.Heater ] }

let test_dead_end_fails_loudly () =
  let s = dead_end_synthesis () in
  (* The heater chamber is contaminated by the first heat and reused by
     the second with a different fluid; it cannot be covered by any
     port-to-port simple path. *)
  match Pdw.optimize s with
  | exception Invalid_argument m ->
    Alcotest.(check bool) "names the problem" true
      (contains m "no wash path covers")
  | o ->
    (* If routing found a trick (it should not on this chip), the result
       must at least be correct. *)
    Alcotest.(check bool) "otherwise must be converged+clean" true
      (o.Wash_plan.converged
      && Pdw_synth.Schedule.violations o.Wash_plan.schedule = [])

let () =
  Alcotest.run "pdw_report"
    [
      ( "report",
        [
          Alcotest.test_case "improvement arithmetic" `Quick
            test_improvement_arithmetic;
          Alcotest.test_case "row stats" `Quick test_row_stats;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "flow-path table" `Quick test_flow_path_table;
        ] );
      ( "metrics",
        [ Alcotest.test_case "objective weights" `Quick test_metrics_weights ]
      );
      ( "diagnostics",
        [
          Alcotest.test_case "demand history" `Quick
            test_demand_history_converges;
        ] );
      ( "json export",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "outcome structure" `Quick
            test_json_outcome_structure;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "dead-end chamber fails loudly" `Quick
            test_dead_end_fails_loudly;
        ] );
    ]
