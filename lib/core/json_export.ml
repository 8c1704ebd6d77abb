module Coord = Pdw_geometry.Coord
module Gpath = Pdw_geometry.Gpath
module Task = Pdw_synth.Task
module Schedule = Pdw_synth.Schedule
module Synthesis = Pdw_synth.Synthesis
module Sequencing_graph = Pdw_assay.Sequencing_graph

open Pdw_obs.Json

type json = Pdw_obs.Json.t

let to_string = Pdw_obs.Json.to_string

let coord (c : Coord.t) = Arr [ Int c.Coord.x; Int c.Coord.y ]

let cells_of_path path = Arr (List.map coord (Gpath.cells path))

let metrics (m : Metrics.t) =
  Obj
    [
      ("n_wash", Int m.Metrics.n_wash);
      ("l_wash_mm", Float m.Metrics.l_wash_mm);
      ("t_assay_s", Int m.Metrics.t_assay);
      ("t_delay_s", Int m.Metrics.t_delay);
      ("total_wash_time_s", Int m.Metrics.total_wash_time);
      ("buffer_ul", Float m.Metrics.buffer_ul);
      ("avg_waiting_time_s", Float m.Metrics.avg_waiting_time);
      ("objective", Float m.Metrics.objective);
    ]

let task_kind task =
  match task.Task.purpose with
  | Task.Transport _ -> "transport"
  | Task.Removal _ -> "removal"
  | Task.Disposal _ -> "disposal"
  | Task.Park _ -> "park"
  | Task.Fetch _ -> "fetch"
  | Task.Wash _ -> "wash"

let entry = function
  | Schedule.Op_run { op_id; device_id; start; finish } ->
    Obj
      [
        ("kind", Str "operation");
        ("op", Int (op_id + 1));
        ("device", Int device_id);
        ("start_s", Int start);
        ("finish_s", Int finish);
      ]
  | Schedule.Task_run { task; start; finish } ->
    let extra =
      match task.Task.purpose with
      | Task.Wash { targets; merged_removals } ->
        [
          ("targets", Arr (List.map coord (Coord.Set.elements targets)));
          ("merged_removals", Arr (List.map (fun i -> Int i) merged_removals));
        ]
      | Task.Transport { fluid; dst_op; _ } ->
        [
          ("fluid", Str (Pdw_biochip.Fluid.to_string fluid));
          ("for_op", Int (dst_op + 1));
        ]
      | Task.Removal { fluid; dst_op; _ } ->
        [
          ("fluid", Str (Pdw_biochip.Fluid.to_string fluid));
          ("for_op", Int (dst_op + 1));
        ]
      | Task.Disposal { fluid; src_op } ->
        [
          ("fluid", Str (Pdw_biochip.Fluid.to_string fluid));
          ("of_op", Int (src_op + 1));
        ]
      | Task.Park { fluid; src_op; cell } ->
        [
          ("fluid", Str (Pdw_biochip.Fluid.to_string fluid));
          ("of_op", Int (src_op + 1));
          ("storage_cell", coord cell);
        ]
      | Task.Fetch { fluid; src_op; dst_op; park } ->
        [
          ("fluid", Str (Pdw_biochip.Fluid.to_string fluid));
          ("of_op", Int (src_op + 1));
          ("for_op", Int (dst_op + 1));
          ("park", Int park);
        ]
    in
    Obj
      ([
         ("kind", Str (task_kind task));
         ("task", Int task.Task.id);
         ("start_s", Int start);
         ("finish_s", Int finish);
         ("path", cells_of_path task.Task.path);
       ]
      @ extra)

let schedule s =
  Obj
    [
      ("assay", Str (Sequencing_graph.name (Schedule.graph s)));
      ("assay_completion_s", Int (Schedule.assay_completion s));
      ("makespan_s", Int (Schedule.makespan s));
      ("entries", Arr (List.map entry (Schedule.entries s)));
    ]

let outcome (o : Wash_plan.outcome) =
  let graph =
    o.Wash_plan.synthesis.Synthesis.benchmark.Pdw_assay.Benchmarks.graph
  in
  Obj
    [
      ("assay", Str (Sequencing_graph.name graph));
      ("num_ops", Int (Sequencing_graph.num_ops graph));
      ("num_edges", Int (Sequencing_graph.num_edges graph));
      ("converged", Bool o.Wash_plan.converged);
      ("rounds", Int o.Wash_plan.rounds);
      ( "demands_per_round",
        Arr (List.map (fun d -> Int d) o.Wash_plan.demand_history) );
      ("metrics", metrics o.Wash_plan.metrics);
      ( "baseline_completion_s",
        Int (Schedule.assay_completion o.Wash_plan.baseline) );
      ("schedule", schedule o.Wash_plan.schedule);
    ]
