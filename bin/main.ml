(* The `pdw` command-line tool: run PathDriver-Wash or the DAWO baseline
   on the published benchmarks (or the motivating example), inspect
   layouts, schedules and necessity analyses, explain individual wash
   decisions from the ledger, and regenerate the paper's experiments. *)

module Benchmarks = Pdw_assay.Benchmarks
module Sequencing_graph = Pdw_assay.Sequencing_graph
module Layout = Pdw_biochip.Layout
module Schedule = Pdw_synth.Schedule
module Synthesis = Pdw_synth.Synthesis
module Contamination = Pdw_wash.Contamination
module Necessity = Pdw_wash.Necessity
module Pdw = Pdw_wash.Pdw
module Wash_plan = Pdw_wash.Wash_plan
module Metrics = Pdw_wash.Metrics
module Report = Pdw_wash.Report
module Explain = Pdw_wash.Explain
module Events = Pdw_obs.Events
module Engine = Pdw_service.Engine
module Server = Pdw_service.Server
module Router = Pdw_service.Router
module Client = Pdw_service.Client
module Loadgen = Pdw_service.Loadgen
module Protocol = Pdw_service.Protocol
module Proc = Pdw_service.Proc

(* The planner config behind [run] and [submit]: one function, so
   served and one-shot runs line up. *)
let planner_config no_necessity no_integration ilp_paths dissolution =
  {
    Pdw.default_config with
    necessity = not no_necessity;
    integrate = not no_integration;
    use_ilp_paths = ilp_paths;
    dissolution =
      Option.value dissolution ~default:Pdw.default_config.Pdw.dissolution;
  }

(* --- observability flags, shared by every planner-running subcommand --- *)

type obs = {
  trace_file : string option;
  stats : bool;
  events_file : string option;
  report_file : string option;
}

(* A planner run worth reporting on: benchmark name, its synthesis and
   the outcome.  Multi-run subcommands (compare, table2) report their
   last PDW run. *)
type run_ctx = {
  ctx_name : string;
  ctx_synthesis : Synthesis.t;
  ctx_outcome : Wash_plan.outcome;
}

let obs_setup obs =
  let report = obs.report_file <> None in
  if obs.trace_file <> None || obs.stats || report then begin
    Pdw_obs.Trace.set_enabled true;
    Pdw_obs.Counters.set_enabled true
  end;
  if obs.events_file <> None || report then Events.set_enabled true

(* Same stage vocabulary bench/main.ml folds into BENCH_solver.json. *)
let report_stage_names =
  [ "synthesis.synthesize"; "plan.necessity"; "plan.grouping"; "plan.paths";
    "plan.reschedule"; "simplex.solve"; "bb.node"; "router.flush" ]

let wash_rows () =
  let n = ref 0 in
  List.filter_map
    (function
      | Events.Wash_path
          {
            round;
            wash_task;
            group;
            targets;
            window;
            finder;
            flow_port;
            waste_port;
            length;
            merged_removals;
            _;
          } ->
        incr n;
        Some
          {
            Pdw_viz.Report_html.ordinal = !n;
            task = wash_task;
            round;
            group;
            n_targets = List.length targets;
            length;
            window;
            finder;
            flow_port;
            waste_port;
            n_merged = List.length merged_removals;
          }
      | _ -> None)
    (Events.events ())

(* One row per park: holds are re-emitted every planning round as the
   schedule shifts, so keep each park's final (highest-round) window. *)
let hold_rows () =
  let best = Hashtbl.create 8 in
  List.iter
    (function
      | Events.Storage_hold { round; park_task; cell; fluid; hold_start; hold_until } ->
        let keep =
          match Hashtbl.find_opt best park_task with
          | Some (r, _) -> round >= r
          | None -> true
        in
        if keep then
          Hashtbl.replace best park_task
            ( round,
              {
                Pdw_viz.Report_html.park_task;
                cell;
                fluid;
                hold_start;
                hold_until;
              } )
      | _ -> ())
    (Events.events ());
  Hashtbl.fold (fun _ (_, row) acc -> row :: acc) best []
  |> List.sort (fun a b ->
         compare a.Pdw_viz.Report_html.park_task b.Pdw_viz.Report_html.park_task)

let write_report file ctx =
  let outcome = ctx.ctx_outcome in
  let highlight =
    List.mapi
      (fun i (t : Pdw_synth.Task.t) ->
        (Printf.sprintf "wash %d" (i + 1), t.Pdw_synth.Task.path))
      outcome.Wash_plan.washes
  in
  let layout_svg =
    Pdw_viz.Layout_svg.render ~highlight ctx.ctx_synthesis.Synthesis.layout
  in
  let gantt_svg = Pdw_viz.Gantt_svg.render outcome.Wash_plan.schedule in
  let m = outcome.Wash_plan.metrics in
  let metrics =
    [
      ("benchmark", ctx.ctx_name);
      ("washes", string_of_int m.Metrics.n_wash);
      ("wash length (mm)", Printf.sprintf "%.1f" m.Metrics.l_wash_mm);
      ("assay time (s)", string_of_int m.Metrics.t_assay);
      ("delay (s)", string_of_int m.Metrics.t_delay);
      ("buffer (µL)", Printf.sprintf "%.1f" m.Metrics.buffer_ul);
      ("objective (Eq. 26)", Printf.sprintf "%.3f" m.Metrics.objective);
      ("rounds", string_of_int outcome.Wash_plan.rounds);
      ("converged", string_of_bool outcome.Wash_plan.converged);
    ]
  in
  let stage_ms =
    Pdw_obs.Trace_export.stage_totals ~names:report_stage_names ()
  in
  let counters =
    List.filter_map
      (fun (name, _, v) -> if v <> 0 then Some (name, v) else None)
      (Pdw_obs.Counters.all ())
  in
  let html =
    Pdw_viz.Report_html.render
      ~title:("PathDriver-Wash run: " ^ ctx.ctx_name)
      ~layout_svg ~gantt_svg ~metrics ~stage_ms ~counters
      ~washes:(wash_rows ()) ~holds:(hold_rows ()) ()
  in
  Pdw_viz.Report_html.write file html;
  Format.eprintf "report: wrote %s@." file

let obs_finish obs ctx =
  (match obs.trace_file with
  | Some file ->
    Pdw_obs.Trace_export.write_chrome file;
    Format.eprintf "trace: wrote %s (%d spans)@." file
      (Pdw_obs.Trace.num_events ())
  | None -> ());
  if obs.stats then Pdw_obs.Trace_export.summary Format.err_formatter;
  (match obs.events_file with
  | Some file ->
    Events.write_jsonl file;
    Format.eprintf "events: wrote %s (%d events%s)@." file
      (Events.num_events ())
      (let d = Events.dropped () in
       if d = 0 then "" else Printf.sprintf ", %d dropped" d)
  | None -> ());
  match (obs.report_file, ctx) with
  | Some file, Some ctx -> write_report file ctx
  | Some _, None -> Format.eprintf "report: no planner run to report@."
  | None, _ -> ()

(* Runs [f] (which returns an exit code plus the run to report on) under
   the requested observability, then writes trace/ledger/report files. *)
let with_obs obs f =
  obs_setup obs;
  let code, ctx = f () in
  obs_finish obs ctx;
  code

(* --- subcommand implementations --- *)

(* Every planner subcommand gets its synthesis and outcome from the
   daemon's own pipeline stages ([Engine]), so a one-shot run and a
   served plan cannot drift apart. *)
let spec_of ?method_ ?config name =
  Protocol.spec ?method_ ?config (Protocol.Benchmark name)

(* Synthesize and optimize [spec], then let [k] print and pick the exit
   code; a spec that does not resolve is reported and exits 1. *)
let planned ~name spec k =
  match Engine.synthesize spec with
  | Error m ->
    prerr_endline m;
    (1, None)
  | Ok s ->
    let outcome = Engine.optimize spec s in
    ( k s outcome,
      Some { ctx_name = name; ctx_synthesis = s; ctx_outcome = outcome } )

(* One Table II row: DAWO, then PDW, on the same synthesis. *)
let table2_row name spec s =
  let dawo = Engine.optimize { spec with Protocol.method_ = `Dawo } s in
  let pdw = Engine.optimize spec s in
  ( Report.row ~name
      ~device_count:(List.length s.Synthesis.benchmark.Benchmarks.device_kinds)
      dawo pdw,
    { ctx_name = name; ctx_synthesis = s; ctx_outcome = pdw } )

let cmd_list () =
  List.iter
    (fun (name, (b : Benchmarks.t)) ->
      let g = b.Benchmarks.graph in
      Printf.printf "%-14s |O|=%-3d |D|=%-3d |E|=%-3d reagents=%d\n" name
        (Sequencing_graph.num_ops g)
        (List.length b.Benchmarks.device_kinds)
        (Sequencing_graph.num_edges g)
        (List.length (Sequencing_graph.reagents g)))
    (Benchmarks.named ());
  0

let cmd_show_layout name =
  match Engine.synthesize (spec_of name) with
  | Error m ->
    prerr_endline m;
    1
  | Ok s ->
    print_endline (Layout.render s.Synthesis.layout);
    Printf.printf "\n%d devices, %d flow ports, %d waste ports\n"
      (List.length (Layout.devices s.Synthesis.layout))
      (List.length (Layout.flow_ports s.Synthesis.layout))
      (List.length (Layout.waste_ports s.Synthesis.layout));
    0

let cmd_necessity name =
  match Engine.synthesize (spec_of name) with
  | Error m ->
    prerr_endline m;
    1
  | Ok s ->
    let report =
      Necessity.analyze (Contamination.analyze s.Synthesis.schedule)
    in
    let needed, t1, t2, t3, washed = Necessity.counts report in
    Printf.printf
      "Contamination events in the baseline schedule of %s:\n\
      \  wash needed:           %4d\n\
      \  type 1 (never reused): %4d\n\
      \  type 2 (same fluid):   %4d\n\
      \  type 3 (waste-bound):  %4d\n\
      \  cleaned by flushes:    %4d\n"
      name needed t1 t2 t3 washed;
    0

let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let cmd_run name method_ show_schedule as_json verbose no_necessity
    no_integration ilp_paths dissolution obs =
  setup_logs verbose;
  with_obs obs @@ fun () ->
  let config =
    planner_config no_necessity no_integration ilp_paths dissolution
  in
  planned ~name (spec_of ~method_ ~config name) @@ fun _ outcome ->
  if as_json then print_endline (Engine.export outcome)
  else begin
    Format.printf "%s on %s: %a@."
      (match method_ with `Pdw -> "PDW" | `Dawo -> "DAWO")
      name Metrics.pp outcome.Wash_plan.metrics;
    Format.printf "rounds=%d converged=%b washes=%d demands-per-round=[%s]@."
      outcome.Wash_plan.rounds outcome.Wash_plan.converged
      (List.length outcome.Wash_plan.washes)
      (String.concat "; "
         (List.map string_of_int outcome.Wash_plan.demand_history));
    if show_schedule then
      Format.printf "@.%a@." Schedule.pp outcome.Wash_plan.schedule
  end;
  if outcome.Wash_plan.converged then 0 else 2

let cmd_compare name obs =
  with_obs obs @@ fun () ->
  let spec = spec_of name in
  match Engine.synthesize spec with
  | Error m ->
    prerr_endline m;
    (1, None)
  | Ok s ->
    let row, ctx = table2_row name spec s in
    Report.print_table2 Format.std_formatter [ row ];
    (0, Some ctx)

let cmd_table2 obs =
  with_obs obs @@ fun () ->
  let last = ref None in
  let rows =
    List.map
      (fun (name, _) ->
        let spec = spec_of name in
        match Engine.synthesize spec with
        | Error m -> failwith m
        | Ok s ->
          let row, ctx = table2_row name spec s in
          last := Some ctx;
          row)
      (Benchmarks.all ())
  in
  Report.print_table2 Format.std_formatter rows;
  Report.print_fig4 Format.std_formatter rows;
  Report.print_fig5 Format.std_formatter rows;
  (0, !last)

let cmd_render name output obs =
  with_obs obs @@ fun () ->
  planned ~name (spec_of name) @@ fun s outcome ->
  let washes =
    List.mapi
      (fun i (t : Pdw_synth.Task.t) ->
        (Printf.sprintf "wash %d" (i + 1), t.Pdw_synth.Task.path))
      outcome.Wash_plan.washes
  in
  let layout_svg =
    Pdw_viz.Layout_svg.render ~highlight:washes s.Synthesis.layout
  in
  let gantt_svg = Pdw_viz.Gantt_svg.render outcome.Wash_plan.schedule in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write (output ^ "-layout.svg") layout_svg;
  write (output ^ "-schedule.svg") gantt_svg;
  0

let cmd_animate name time obs =
  with_obs obs @@ fun () ->
  planned ~name (spec_of name) @@ fun _ outcome ->
  let sim = Pdw_sim.Flow_sim.run outcome.Wash_plan.schedule in
  let horizon = Pdw_sim.Flow_sim.makespan sim in
  let t = min time horizon in
  Printf.printf
    "t = %d / %d s  (# flowing, ~ residue, utilization %.1f%%)\n%s\n" t
    horizon
    (100.0 *. Pdw_sim.Flow_sim.utilization sim)
    (Pdw_sim.Flow_sim.render_frame sim ~time:t);
  0

let cmd_actuations name obs =
  with_obs obs @@ fun () ->
  planned ~name (spec_of name) @@ fun _ outcome ->
  let plan = Pdw_synth.Actuation.of_schedule outcome.Wash_plan.schedule in
  Printf.printf
    "Control layer for the optimized schedule of %s:\n\
    \  valve transitions: %d\n\
    \  peak open valves:  %d\n\
     Busiest valves:\n"
    name
    (Pdw_synth.Actuation.switching_count plan)
    (Pdw_synth.Actuation.peak_open plan);
  List.iteri
    (fun i (valve, n) ->
      if i < 5 then
        Printf.printf "  %-8s %d transitions\n"
          (Pdw_geometry.Coord.to_string valve)
          n)
    (Pdw_synth.Actuation.per_valve plan);
  0

let cmd_optimize_file path obs =
  with_obs obs @@ fun () ->
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m ->
    prerr_endline m;
    (1, None)
  | text ->
    planned ~name:path (Protocol.spec (Protocol.Inline text))
    @@ fun _ outcome ->
    Format.printf "PDW on %s: %a@." path Metrics.pp outcome.Wash_plan.metrics;
    Format.printf "%a@." Schedule.pp outcome.Wash_plan.schedule;
    if outcome.Wash_plan.converged then 0 else 2

let cmd_paths name obs =
  with_obs obs @@ fun () ->
  planned ~name (spec_of name) @@ fun _ outcome ->
  Report.print_flow_paths Format.std_formatter outcome.Wash_plan.schedule;
  0

let cmd_verify name method_ obs =
  with_obs obs @@ fun () ->
  planned ~name (spec_of ~method_ name) @@ fun _ outcome ->
  let report = Pdw_check.Validate.outcome outcome in
  Format.printf "%a@." Pdw_check.Validate.pp report;
  if Pdw_check.Validate.ok report then 0 else 2

let cmd_explain name ledger method_ cell_opt wash_opt obs =
  with_obs obs @@ fun () ->
  let events_result =
    match (ledger, name) with
    | Some file, _ ->
      Result.map (fun es -> (es, None)) (Events.load_jsonl file)
    | None, None ->
      Error "explain: give a BENCHMARK to re-run, or --ledger FILE"
    | None, Some name -> (
      (* Re-run the planner with the ledger on; start it clean so wash
         ordinals are stable regardless of the surrounding flags. *)
      Events.set_enabled true;
      Events.reset ();
      let spec = spec_of ~method_ name in
      match Engine.synthesize spec with
      | Error m -> Error m
      | Ok s ->
        let outcome = Engine.optimize spec s in
        Ok
          ( Events.events (),
            Some { ctx_name = name; ctx_synthesis = s; ctx_outcome = outcome }
          ))
  in
  match events_result with
  | Error m ->
    prerr_endline m;
    (1, None)
  | Ok (events, ctx) ->
    let code = ref 0 in
    (match cell_opt with
    | Some (x, y) -> (
      match Explain.cell ~events ~x ~y with
      | Some text -> print_string text
      | None ->
        Printf.printf
          "cell (%d,%d): no ledger entries — the cell was never \
           contaminated\n"
          x y;
        code := 1)
    | None -> ());
    (match wash_opt with
    | Some n -> (
      match Explain.wash ~events n with
      | Some text -> print_string text
      | None ->
        Printf.printf "wash #%d: not in the ledger (%d washes recorded)\n" n
          (Explain.num_washes ~events);
        code := 1)
    | None -> ());
    if cell_opt = None && wash_opt = None then begin
      print_endline (Explain.digest ~events);
      print_endline "hint: ask --cell X,Y or --wash N"
    end;
    (!code, ctx)

(* --- planning service subcommands --- *)

let default_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) "pdw.sock"

let cmd_serve socket workers queue_limit cache_size timeout_ms slow_log
    slow_ms store store_max_mb =
  let cfg =
    {
      Server.socket_path = socket;
      workers;
      queue_limit;
      cache_capacity = cache_size;
      job_timeout_ms = timeout_ms;
      store_dir = store;
      store_max_bytes = store_max_mb * 1024 * 1024;
    }
  in
  (match slow_log with
  | Some path -> Pdw_obs.Reqtrace.set_slow_log ~threshold_ms:slow_ms path
  | None -> ());
  match Server.start cfg with
  | exception Unix.Unix_error (e, _, arg) ->
    Printf.eprintf "pdw serve: cannot listen on %s: %s\n" arg
      (Unix.error_message e);
    1
  | server ->
    Printf.eprintf
      "pdw serve: listening on %s (workers=%d queue-limit=%d cache=%d)\n%!"
      socket workers queue_limit cache_size;
    Server.wait server;
    Printf.eprintf "pdw serve: stopped\n%!";
    0

let cmd_submit bench file stats ping shutdown server_version socket method_
    no_cache no_necessity no_integration ilp_paths dissolution park =
  let submit_spec () =
    match (bench, file) with
    | Some _, Some _ -> Error "give a BENCHMARK or --file, not both"
    | Some name, None ->
      Ok (Protocol.Submit
            { spec =
                Protocol.spec ~method_
                  ~config:(planner_config no_necessity no_integration ilp_paths
                             dissolution)
                  ~park
                  (Protocol.Benchmark name);
              no_cache })
    | None, Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> Error m
      | text ->
        Ok (Protocol.Submit
              { spec =
                  Protocol.spec ~method_
                    ~config:(planner_config no_necessity no_integration
                               ilp_paths dissolution)
                    ~park
                    (Protocol.Inline text);
                no_cache }))
    | None, None ->
      Error
        "give a BENCHMARK, --file FILE, or one of --stats / --ping / \
         --server-version / --shutdown"
  in
  let request =
    if stats then Ok Protocol.Stats
    else if ping then Ok Protocol.Ping
    else if shutdown then Ok Protocol.Shutdown
    else if server_version then Ok Protocol.Version
    else submit_spec ()
  in
  match request with
  | Error m ->
    prerr_endline ("pdw submit: " ^ m);
    1
  | Ok req -> (
    match Client.connect socket with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "pdw submit: cannot reach %s: %s\n" socket
        (Unix.error_message e);
      1
    | client ->
      let reply = Client.request client req in
      Client.close client;
      (match reply with
      | Error m ->
        prerr_endline ("pdw submit: " ^ m);
        1
      | Ok (Protocol.Plan { cached; coalesced; tier; digest; wall_ms; outcome })
        ->
        (* The outcome on stdout, byte-identical to [pdw run --json];
           request metadata on stderr where it can't corrupt a pipe. *)
        print_endline outcome;
        Printf.eprintf
          "pdw submit: %s cached=%b tier=%s coalesced=%b wall=%.1fms\n" digest
          cached (Protocol.tier_name tier) coalesced wall_ms;
        0
      | Ok (Protocol.Shed { in_flight; limit }) ->
        Printf.eprintf "pdw submit: shed (%d in flight, limit %d)\n" in_flight
          limit;
        3
      | Ok (Protocol.Timeout { after_ms }) ->
        Printf.eprintf "pdw submit: timed out after %d ms\n" after_ms;
        4
      | Ok (Protocol.Stats_reply stats) ->
        print_endline (Pdw_obs.Json.to_string stats);
        0
      | Ok (Protocol.Metrics_reply text) ->
        print_string text;
        0
      | Ok (Protocol.Version_reply v) ->
        print_endline v;
        0
      | Ok Protocol.Pong ->
        print_endline "pong";
        0
      | Ok Protocol.Bye ->
        print_endline "server shutting down";
        0
      | Ok (Protocol.Burned { ms }) ->
        Printf.eprintf "pdw submit: burned %d ms\n" ms;
        0
      | Ok (Protocol.Hello_reply { version; rev }) ->
        Printf.printf "%s (wire rev %d)\n" version rev;
        0
      | Ok (Protocol.Error m) ->
        prerr_endline ("pdw submit: server error: " ^ m);
        1))

(* --- pdw stats: the daemon's telemetry from the outside --- *)

let jget j path =
  List.fold_left
    (fun acc k -> Option.bind acc (Pdw_obs.Json.member k))
    (Some j) path

let jint j path =
  match Option.bind (jget j path) Pdw_obs.Json.to_int with
  | Some i -> i
  | None -> 0

let jfloat j path =
  match Option.bind (jget j path) Pdw_obs.Json.to_float with
  | Some f -> f
  | None -> 0.0

let jstr j path =
  match Option.bind (jget j path) Pdw_obs.Json.to_str with
  | Some s -> s
  | None -> "?"

(* The router's stats payload (role = "router") prints as a fleet view:
   routing counters, summed tallies, then one line per shard process. *)
let print_fleet_human j =
  Printf.printf "pdw router %s — up %.1f s, %d/%d shard processes live\n"
    (jstr j [ "version" ])
    (jfloat j [ "uptime_s" ])
    (jint j [ "fleet"; "procs_live" ])
    (jint j [ "fleet"; "procs_total" ]);
  Printf.printf
    "routing    forwarded %d, retries %d, rerings %d, no-live-shard %d, \
     vnodes %d\n"
    (jint j [ "fleet"; "forwarded" ])
    (jint j [ "fleet"; "retries" ])
    (jint j [ "fleet"; "rerings" ])
    (jint j [ "fleet"; "no_live_shard" ])
    (jint j [ "fleet"; "vnodes" ]);
  Printf.printf
    "requests   submitted %d, completed %d, coalesced %d, timeouts %d, \
     errors %d\n"
    (jint j [ "requests"; "submitted" ])
    (jint j [ "requests"; "completed" ])
    (jint j [ "requests"; "coalesced" ])
    (jint j [ "requests"; "timeouts" ])
    (jint j [ "requests"; "errors" ]);
  Printf.printf
    "cache      hits %d, misses %d, promotions %d, demotions %d (fleet sums)\n"
    (jint j [ "cache"; "hits" ])
    (jint j [ "cache"; "misses" ])
    (jint j [ "cache"; "promotions" ])
    (jint j [ "cache"; "demotions" ]);
  Printf.printf "forward    n %-7d p50 %6.1f ms   p95 %6.1f ms   p99 %6.1f ms\n"
    (jint j [ "forward_ms"; "samples" ])
    (jfloat j [ "forward_ms"; "p50" ])
    (jfloat j [ "forward_ms"; "p95" ])
    (jfloat j [ "forward_ms"; "p99" ]);
  match jget j [ "procs" ] with
  | Some (Pdw_obs.Json.Arr procs) ->
    List.iter
      (fun p ->
        let up =
          match jget p [ "up" ] with
          | Some (Pdw_obs.Json.Bool b) -> b
          | _ -> false
        in
        Printf.printf "proc %-4d %-4s %s forwarded %d%s\n" (jint p [ "proc" ])
          (if up then "up" else "DOWN")
          (jstr p [ "socket" ])
          (jint p [ "forwarded" ])
          (match jget p [ "error" ] with
          | Some (Pdw_obs.Json.Str m) -> " — " ^ m
          | _ -> ""))
      procs
  | _ -> ()

let print_stats_human j =
  let lat name =
    Printf.printf "%-10s n %-7d p50 %6.1f ms   p95 %6.1f ms   p99 %6.1f ms\n"
      name
      (jint j [ name; "samples" ])
      (jfloat j [ name; "p50" ])
      (jfloat j [ name; "p95" ])
      (jfloat j [ name; "p99" ])
  in
  Printf.printf "pdw daemon %s — up %.1f s, %d workers\n" (jstr j [ "version" ])
    (jfloat j [ "uptime_s" ])
    (jint j [ "workers" ]);
  Printf.printf
    "queue      in-flight %d, pending %d, limit %d, depth peak %d, shed %d\n"
    (jint j [ "queue"; "in_flight" ])
    (jint j [ "queue"; "pending" ])
    (jint j [ "queue"; "limit" ])
    (jint j [ "queue"; "depth_peak" ])
    (jint j [ "queue"; "shed" ]);
  Printf.printf
    "cache      hits %d, misses %d (hit rate %.1f%%), evictions %d, %d/%d \
     entries, promotions %d, demotions %d\n"
    (jint j [ "cache"; "hits" ])
    (jint j [ "cache"; "misses" ])
    (100.0 *. jfloat j [ "cache"; "hit_rate" ])
    (jint j [ "cache"; "evictions" ])
    (jint j [ "cache"; "length" ])
    (jint j [ "cache"; "capacity" ])
    (jint j [ "cache"; "promotions" ])
    (jint j [ "cache"; "demotions" ]);
  (match jget j [ "cache"; "store" ] with
  | Some _ ->
    Printf.printf
      "store      hits %d, misses %d, writes %d, evictions %d, corrupt %d, \
       %d entries (%d/%d bytes)\n"
      (jint j [ "cache"; "store"; "hits" ])
      (jint j [ "cache"; "store"; "misses" ])
      (jint j [ "cache"; "store"; "writes" ])
      (jint j [ "cache"; "store"; "evictions" ])
      (jint j [ "cache"; "store"; "corrupt" ])
      (jint j [ "cache"; "store"; "entries" ])
      (jint j [ "cache"; "store"; "bytes" ])
      (jint j [ "cache"; "store"; "max_bytes" ])
  | None -> ());
  Printf.printf
    "requests   submitted %d, completed %d, coalesced %d, timeouts %d, \
     errors %d, burns %d\n"
    (jint j [ "requests"; "submitted" ])
    (jint j [ "requests"; "completed" ])
    (jint j [ "requests"; "coalesced" ])
    (jint j [ "requests"; "timeouts" ])
    (jint j [ "requests"; "errors" ])
    (jint j [ "requests"; "burns" ]);
  lat "latency_ms";
  lat "queue_wait_ms";
  lat "service_ms"

let cmd_stats socket prometheus as_json watch interval =
  let fetch () =
    match Client.connect socket with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot reach %s: %s" socket (Unix.error_message e))
    | client ->
      let req = if prometheus then Protocol.Metrics else Protocol.Stats in
      let reply = Client.request client req in
      Client.close client;
      (match reply with
      | Ok (Protocol.Metrics_reply text) -> Ok (`Metrics text)
      | Ok (Protocol.Stats_reply j) -> Ok (`Stats j)
      | Ok (Protocol.Error m) -> Error ("server error: " ^ m)
      | Ok _ -> Error "unexpected reply shape"
      | Error m -> Error m)
  in
  let show payload =
    (match payload with
    | `Metrics text ->
      print_string text;
      if text <> "" && text.[String.length text - 1] <> '\n' then
        print_newline ()
    | `Stats j ->
      if as_json then print_endline (Pdw_obs.Json.to_string j)
      else if jget j [ "fleet" ] <> None then print_fleet_human j
      else print_stats_human j);
    flush stdout
  in
  if not watch then (
    match fetch () with
    | Error m ->
      prerr_endline ("pdw stats: " ^ m);
      1
    | Ok payload ->
      show payload;
      0)
  else
    (* Refresh until interrupted or the daemon goes away. *)
    let rec loop () =
      match fetch () with
      | Error m ->
        prerr_endline ("pdw stats: " ^ m);
        1
      | Ok payload ->
        print_string "\027[2J\027[H";
        show payload;
        Unix.sleepf (Float.max 0.1 interval);
        loop ()
    in
    loop ()

let cmd_loadgen benches socket clients per_client requests warmup pipeline
    no_cache seed verify as_json method_ =
  let benches = if benches = [] then [ "pcr"; "ivd"; "proteinsplit" ] else benches in
  let specs =
    List.map (fun name -> Protocol.spec ~method_ (Protocol.Benchmark name)) benches
  in
  let per_client =
    match requests with
    | Some total -> (max 0 total + max 1 clients - 1) / max 1 clients
    | None -> per_client
  in
  match
    Loadgen.run ~socket_path:socket ~clients ~per_client ~warmup ~pipeline
      ~no_cache ?seed ~verify specs
  with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "pdw loadgen: cannot reach %s: %s\n" socket
      (Unix.error_message e);
    1
  | exception Invalid_argument m ->
    prerr_endline ("pdw loadgen: " ^ m);
    1
  | s ->
    if as_json then
      print_endline (Pdw_obs.Json.to_string (Loadgen.summary_json s))
    else Format.printf "%a@." Loadgen.pp_summary s;
    if s.Loadgen.mismatches > 0 || s.Loadgen.errors > 0 then 1 else 0

(* --- pdw fleet: a multi-process shard fleet behind one router --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let shard_socket run_dir i =
  Filename.concat run_dir (Printf.sprintf "shard-%d.sock" i)

let shard_pidfile run_dir i =
  Filename.concat run_dir (Printf.sprintf "shard-%d.pid" i)

let write_pidfile path pid =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "%d\n" pid)

(* Spawn one shard daemon: this very binary running [pdw serve]. *)
let spawn_shard ~run_dir ~i ~workers ~queue_limit ~cache_size ~timeout_ms
    ~store_dir =
  let args =
    [ "serve"; "--socket"; shard_socket run_dir i; "--workers";
      string_of_int workers; "--queue-limit"; string_of_int queue_limit;
      "--cache-size"; string_of_int cache_size; "--timeout-ms";
      string_of_int timeout_ms ]
    @ match store_dir with Some d -> [ "--store"; d ] | None -> []
  in
  let pid = Proc.spawn_self args in
  write_pidfile (shard_pidfile run_dir i) pid;
  pid

let cmd_fleet_start socket run_dir shards workers queue_limit cache_size
    timeout_ms no_store vnodes =
  let shards = max 1 shards in
  mkdir_p run_dir;
  let store_dir =
    if no_store then None else Some (Filename.concat run_dir "store")
  in
  let pids =
    List.init shards (fun i ->
        spawn_shard ~run_dir ~i ~workers ~queue_limit ~cache_size ~timeout_ms
          ~store_dir)
  in
  let shard_sockets = List.init shards (shard_socket run_dir) in
  let ready =
    List.for_all (fun p -> Proc.wait_ready p ~timeout_s:15.0) shard_sockets
  in
  if not ready then begin
    Printf.eprintf "pdw fleet: shard daemons did not come up; killing fleet\n";
    Proc.reap ~grace_s:0.0 pids;
    1
  end
  else begin
    let cfg =
      { (Router.default_config ~socket_path:socket ~shard_sockets) with
        vnodes }
    in
    match Router.start cfg with
    | exception Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "pdw fleet: cannot listen on %s: %s\n" arg
        (Unix.error_message e);
      Proc.reap ~grace_s:0.0 pids;
      1
    | router ->
      write_pidfile (Filename.concat run_dir "router.pid") (Unix.getpid ());
      Printf.eprintf
        "pdw fleet: router on %s, %d shard processes under %s%s\n%!" socket
        shards run_dir
        (match store_dir with
        | Some d -> Printf.sprintf " (store %s)" d
        | None -> "");
      Router.wait router;
      (* Reap the shard daemons; a [shutdown] through the router already
         broadcast to them, so normally they are exiting — escalate to
         SIGKILL only if one wedges. *)
      Proc.reap pids;
      Printf.eprintf "pdw fleet: stopped\n%!";
      0
  end

(* One request against the router (or any daemon) socket. *)
let fleet_request socket req =
  match Client.connect socket with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot reach %s: %s" socket (Unix.error_message e))
  | c ->
    let r = Client.request c req in
    Client.close c;
    r

let cmd_fleet_stop socket =
  match fleet_request socket Protocol.Shutdown with
  | Ok Protocol.Bye ->
    print_endline "fleet shutting down";
    0
  | Ok _ ->
    prerr_endline "pdw fleet stop: unexpected reply";
    1
  | Error m ->
    prerr_endline ("pdw fleet stop: " ^ m);
    1

let cmd_fleet_status socket as_json =
  match fleet_request socket Protocol.Stats with
  | Ok (Protocol.Stats_reply j) ->
    if as_json then print_endline (Pdw_obs.Json.to_string j)
    else if jget j [ "fleet" ] <> None then print_fleet_human j
    else print_stats_human j;
    0
  | Ok _ ->
    prerr_endline "pdw fleet status: unexpected reply";
    1
  | Error m ->
    prerr_endline ("pdw fleet status: " ^ m);
    1

(* Drain one shard: a [shutdown] straight to its own socket.  The
   daemon answers [Bye] and exits; the router notices the dead
   connection, fails over its in-flight requests and drops the shard
   from the ring — exactly the path a crash exercises, minus the crash. *)
let cmd_fleet_drain run_dir shard =
  let path = shard_socket run_dir shard in
  match fleet_request path Protocol.Shutdown with
  | Ok Protocol.Bye ->
    Printf.printf "shard %d draining (%s)\n" shard path;
    0
  | Ok _ ->
    prerr_endline "pdw fleet drain: unexpected reply";
    1
  | Error m ->
    prerr_endline ("pdw fleet drain: " ^ m);
    1

(* --- cmdliner wiring --- *)

open Cmdliner

let benchmark_arg =
  let doc = "Benchmark name (see $(b,pdw list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let method_conv = Arg.enum [ ("pdw", `Pdw); ("dawo", `Dawo) ]

let method_arg =
  let doc = "Optimization method: $(b,pdw) or $(b,dawo)." in
  Arg.(value & opt method_conv `Pdw & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let schedule_arg =
  let doc = "Print the full optimized schedule." in
  Arg.(value & flag & info [ "s"; "schedule" ] ~doc)

let json_arg =
  let doc = "Emit the result as JSON." in
  Arg.(value & flag & info [ "j"; "json" ] ~doc)

let verbose_arg =
  let doc = "Log the planner's fixpoint rounds and decisions." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let no_necessity_arg =
  let doc = "Ablation: disable the Type 1/2/3 necessity analysis." in
  Arg.(value & flag & info [ "no-necessity" ] ~doc)

let no_integration_arg =
  let doc = "Ablation: disable integration with excess-fluid removal." in
  Arg.(value & flag & info [ "no-integration" ] ~doc)

let ilp_paths_arg =
  let doc = "Use the exact wash-path ILP (Eqs. 12-15) instead of the              heuristic search." in
  Arg.(value & flag & info [ "ilp-paths" ] ~doc)

let dissolution_arg =
  let doc = "Contaminant dissolution time t_d in seconds (Eq. 17)." in
  Arg.(value & opt (some int) None & info [ "dissolution" ] ~docv:"SECONDS" ~doc)

let obs_term =
  let trace_arg =
    let doc =
      "Record tracing spans and write a Chrome-trace JSON to $(docv)      (open it at chrome://tracing or ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc =
      "Print the span summary tree and counter table to stderr after the      run."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let events_arg =
    let doc =
      "Record the decision ledger and write it as JSONL to $(docv)      (one typed event per line; feed it back with $(b,pdw explain      --ledger))."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let report_arg =
    let doc =
      "Write a self-contained HTML run report to $(docv): layout and      Gantt SVGs, metrics, stage timings, counters and the sortable      wash-decision table.  Implies tracing, counters and the decision      ledger.  Multi-run subcommands report their last PDW run."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace_file stats events_file report_file ->
        { trace_file; stats; events_file; report_file })
    $ trace_arg $ stats_arg $ events_arg $ report_arg)

let list_cmd =
  let doc = "List the available benchmarks with their |O|/|D|/|E| stats." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const cmd_list $ const ())

let layout_cmd =
  let doc = "Render the synthesized chip layout of a benchmark." in
  Cmd.v (Cmd.info "show-layout" ~doc) Term.(const cmd_show_layout $ benchmark_arg)

let necessity_cmd =
  let doc = "Report the wash-necessity analysis (Type 1/2/3) of a benchmark." in
  Cmd.v (Cmd.info "necessity" ~doc) Term.(const cmd_necessity $ benchmark_arg)

let run_cmd =
  let doc = "Run wash optimization on one benchmark." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const cmd_run $ benchmark_arg $ method_arg $ schedule_arg $ json_arg
      $ verbose_arg $ no_necessity_arg $ no_integration_arg $ ilp_paths_arg
      $ dissolution_arg $ obs_term)

let compare_cmd =
  let doc = "Compare PDW against DAWO on one benchmark." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const cmd_compare $ benchmark_arg $ obs_term)

let table2_cmd =
  let doc = "Regenerate Table II and Figs. 4-5 over all eight benchmarks." in
  Cmd.v (Cmd.info "table2" ~doc) Term.(const cmd_table2 $ obs_term)

let render_cmd =
  let output =
    let doc = "Output file prefix (writes PREFIX-layout.svg and PREFIX-schedule.svg)." in
    Arg.(value & opt string "pdw" & info [ "o"; "output" ] ~docv:"PREFIX" ~doc)
  in
  let doc = "Render the optimized chip and schedule as SVG files." in
  Cmd.v (Cmd.info "render" ~doc)
    Term.(const cmd_render $ benchmark_arg $ output $ obs_term)

let animate_cmd =
  let time =
    let doc = "Second to display." in
    Arg.(value & opt int 0 & info [ "t"; "time" ] ~docv:"SECONDS" ~doc)
  in
  let doc = "Show the simulated chip state at a given second." in
  Cmd.v (Cmd.info "animate" ~doc)
    Term.(const cmd_animate $ benchmark_arg $ time $ obs_term)

let actuations_cmd =
  let doc = "Derive the valve actuation plan of the optimized schedule." in
  Cmd.v (Cmd.info "actuations" ~doc)
    Term.(const cmd_actuations $ benchmark_arg $ obs_term)

let optimize_file_cmd =
  let file =
    let doc = "Assay description file (see lib/assay/assay_parser.mli)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let doc = "Synthesize and optimize an assay from a text file." in
  Cmd.v (Cmd.info "optimize-file" ~doc)
    Term.(const cmd_optimize_file $ file $ obs_term)

let paths_cmd =
  let doc = "List every flow path of the optimized schedule (Table I style)." in
  Cmd.v (Cmd.info "paths" ~doc)
    Term.(const cmd_paths $ benchmark_arg $ obs_term)

let verify_cmd =
  let doc =
    "Run every checker (structural, contamination, simulator, actuation)      on an optimized benchmark."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const cmd_verify $ benchmark_arg $ method_arg $ obs_term)

let explain_cmd =
  let opt_benchmark =
    let doc =
      "Benchmark to re-run with the decision ledger on (omit when      loading a ledger with $(b,--ledger))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let ledger =
    let doc =
      "Load the decision ledger from a JSONL file written by      $(b,--events) instead of re-running the planner."
    in
    Arg.(value & opt (some file) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  let cell =
    let cell_conv =
      let parse s =
        match String.split_on_char ',' s with
        | [ x; y ] -> (
          match
            (int_of_string_opt (String.trim x), int_of_string_opt (String.trim y))
          with
          | Some x, Some y -> Ok (x, y)
          | _ -> Error (`Msg (Printf.sprintf "invalid cell %S, expected X,Y" s)))
        | _ -> Error (`Msg (Printf.sprintf "invalid cell %S, expected X,Y" s))
      in
      let print ppf (x, y) = Format.fprintf ppf "%d,%d" x y in
      Arg.conv (parse, print)
    in
    let doc =
      "Explain every ledger decision about cell $(docv): why it was      washed or why washing was skipped, with the classification rule      and the later use behind it."
    in
    Arg.(value & opt (some cell_conv) None & info [ "cell" ] ~docv:"X,Y" ~doc)
  in
  let wash =
    let doc =
      "Explain wash number $(docv) (1-based): its targets, group,      merged removals, chosen ports, path and time window."
    in
    Arg.(value & opt (some int) None & info [ "wash" ] ~docv:"N" ~doc)
  in
  let doc =
    "Answer why-questions from the decision ledger: why a cell was      washed or skipped ($(b,--cell)), or the full provenance of one wash      ($(b,--wash))."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const cmd_explain $ opt_benchmark $ ledger $ method_arg $ cell $ wash
      $ obs_term)

let socket_arg =
  let doc = "Unix-domain socket path of the planning daemon." in
  Arg.(
    value
    & opt string (default_socket ())
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers =
    let doc =
      "Most planner worker domains; one is started only when a job finds      none idle."
    in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_limit =
    let doc =
      "Maximum jobs in flight (queued + running); submissions beyond it      are refused with an explicit shed reply."
    in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let cache_size =
    let doc = "Plan-cache capacity (entries, LRU eviction)." in
    Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"N" ~doc)
  in
  let timeout_ms =
    let doc = "Per-request timeout in milliseconds." in
    Arg.(value & opt int 60_000 & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let slow_log =
    let doc =
      "Append every request slower than $(b,--slow-ms) to $(docv) as      JSONL — one record per request with its id, digest, outcome and      stage-by-stage timing.  Off by default (and byte-inert when off)."
    in
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE" ~doc)
  in
  let slow_ms =
    let doc = "Slow-request threshold in milliseconds for $(b,--slow-log)." in
    Arg.(value & opt float 100.0 & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let store =
    let doc =
      "Back the plan cache with a persistent content-addressed store in      $(docv): computed plans are written through to digest-named files      and survive restarts, so a fresh daemon (or another daemon sharing      the directory) serves warm plans immediately."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let store_max_mb =
    let doc = "Plan-store byte budget in MiB (LRU eviction)." in
    Arg.(value & opt int 256 & info [ "store-max-mb" ] ~docv:"MIB" ~doc)
  in
  let doc =
    "Run the planning daemon: a Unix-socket server with a bounded job      queue, content-addressed plan cache, request coalescing and a      worker-domain pool.  Stop it with $(b,pdw submit --shutdown)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const cmd_serve $ socket_arg $ workers $ queue_limit $ cache_size
      $ timeout_ms $ slow_log $ slow_ms $ store $ store_max_mb)

let stats_cmd =
  let prometheus =
    let doc =
      "Fetch the Prometheus text exposition ($(b,metrics) verb) instead of      the JSON stats snapshot — counters, gauges and histogram buckets,      with per-worker rows, ready for a scraper."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  let as_json =
    let doc = "Print the raw stats JSON instead of the human summary." in
    Arg.(value & flag & info [ "j"; "json" ] ~doc)
  in
  let watch =
    let doc = "Refresh continuously until interrupted." in
    Arg.(value & flag & info [ "w"; "watch" ] ~doc)
  in
  let interval =
    let doc = "Refresh interval in seconds for $(b,--watch)." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let doc =
    "Show a running daemon's telemetry: a human-readable summary by      default, the raw stats JSON with $(b,--json), or the Prometheus      scrape text with $(b,--prometheus); $(b,--watch) refreshes in      place."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const cmd_stats $ socket_arg $ prometheus $ as_json $ watch $ interval)

let submit_cmd =
  let bench =
    let doc = "Benchmark to plan (see $(b,pdw list))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let file =
    let doc = "Submit an inline assay description file instead of a      benchmark." in
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let stats =
    let doc = "Fetch the daemon's stats snapshot (queue depth, cache hit      rate, latency percentiles) as JSON." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let ping =
    let doc = "Health-check the daemon." in
    Arg.(value & flag & info [ "ping" ] ~doc)
  in
  let shutdown =
    let doc = "Ask the daemon to shut down." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let server_version =
    let doc = "Print the daemon's version." in
    Arg.(value & flag & info [ "server-version" ] ~doc)
  in
  let no_cache =
    let doc = "Bypass the plan cache: always compute fresh, don't store." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let park =
    let doc =
      "Park the results of these operation ids (comma-separated) in      distributed channel storage before reuse; the spec digests      differently from its storage-free projection, so cached plans      never cross the boundary."
    in
    Arg.(value & opt (list int) [] & info [ "park" ] ~docv:"IDS" ~doc)
  in
  let doc =
    "Submit one planning request to a running daemon and print the      outcome JSON (byte-identical to $(b,pdw run --json)).  Exit codes:      0 plan, 3 shed, 4 timeout, 1 error."
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const cmd_submit $ bench $ file $ stats $ ping $ shutdown
      $ server_version $ socket_arg $ method_arg $ no_cache $ no_necessity_arg
      $ no_integration_arg $ ilp_paths_arg $ dissolution_arg $ park)

let loadgen_cmd =
  let benches =
    let doc = "Benchmarks to cycle through (default: pcr ivd proteinsplit)." in
    Arg.(value & pos_all string [] & info [] ~docv:"BENCHMARK" ~doc)
  in
  let clients =
    let doc = "Concurrent client connections." in
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let per_client =
    let doc = "Measured requests per client (overridden by $(b,--requests))." in
    Arg.(value & opt int 64 & info [ "per-client" ] ~docv:"N" ~doc)
  in
  let requests =
    let doc =
      "Total measured requests, split evenly across clients (rounded up).      Overrides $(b,--per-client)."
    in
    Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc)
  in
  let warmup =
    let doc =
      "Warm-up requests issued before the measured phase and excluded      from every recorded figure."
    in
    Arg.(value & opt int 0 & info [ "warmup" ] ~docv:"N" ~doc)
  in
  let pipeline =
    let doc = "Requests each client keeps in flight per batched write." in
    Arg.(value & opt int 1 & info [ "pipeline" ] ~docv:"N" ~doc)
  in
  let no_cache =
    let doc =
      "Bypass the daemon's plan cache and coalescer on every request,      so each one is planned from scratch on a worker domain — a planner      workout instead of a cache workout."
    in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let seed =
    let doc =
      "Seed the spec-selection RNG: the whole campaign's request sequence      becomes a pure function of this seed (each client draws from its      own PRNG state split from the root), reproducible across runs and      machines.  Without it, clients cycle specs round-robin."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let verify =
    let doc =
      "Recompute every distinct spec locally and require served outcomes      to be byte-identical."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let as_json =
    let doc = "Emit the summary as JSON." in
    Arg.(value & flag & info [ "j"; "json" ] ~doc)
  in
  let doc =
    "Drive a running daemon with concurrent duplicate-heavy traffic and      report throughput, latency percentiles, cache/coalescing counts and      byte-identity verification.  Exits nonzero on mismatches or errors."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const cmd_loadgen $ benches $ socket_arg $ clients $ per_client
      $ requests $ warmup $ pipeline $ no_cache $ seed $ verify $ as_json
      $ method_arg)

let fleet_cmd =
  let run_dir_arg =
    let doc =
      "Fleet run directory: shard sockets, pid files and (by default)      the shared plan store live here."
    in
    Arg.(
      value
      & opt string
          (Filename.concat (Filename.get_temp_dir_name ()) "pdw-fleet")
      & info [ "run-dir" ] ~docv:"DIR" ~doc)
  in
  let start =
    let shards =
      let doc = "Shard daemon processes to spawn." in
      Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
    in
    let workers =
      let doc = "Planner worker domains per shard process." in
      Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
    in
    let queue_limit =
      let doc = "Per-shard-process job queue limit." in
      Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
    in
    let cache_size =
      let doc = "Per-shard-process plan-cache capacity." in
      Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"N" ~doc)
    in
    let timeout_ms =
      let doc = "Per-request timeout in milliseconds." in
      Arg.(value & opt int 60_000 & info [ "timeout-ms" ] ~docv:"MS" ~doc)
    in
    let no_store =
      let doc =
        "Run the shards without the shared persistent plan store (plans      live only in each process's memory)."
      in
      Arg.(value & flag & info [ "no-store" ] ~doc)
    in
    let vnodes =
      let doc = "Consistent-hash ring points per shard." in
      Arg.(value & opt int 64 & info [ "vnodes" ] ~docv:"N" ~doc)
    in
    let doc =
      "Spawn $(b,--shards) planning daemons (one process each, sockets      and pid files under $(b,--run-dir)) plus the consistent-hash router      on $(b,--socket), and run until a $(b,shutdown) arrives through the      router.  The shards share one persistent plan store, so any of them      serves a plan any other has computed."
    in
    Cmd.v (Cmd.info "start" ~doc)
      Term.(
        const cmd_fleet_start $ socket_arg $ run_dir_arg $ shards $ workers
        $ queue_limit $ cache_size $ timeout_ms $ no_store $ vnodes)
  in
  let stop =
    let doc =
      "Shut the fleet down: the router broadcasts $(b,shutdown) to every      live shard, then stops itself."
    in
    Cmd.v (Cmd.info "stop" ~doc) Term.(const cmd_fleet_stop $ socket_arg)
  in
  let status =
    let as_json =
      let doc = "Print the raw fleet stats JSON." in
      Arg.(value & flag & info [ "j"; "json" ] ~doc)
    in
    let doc =
      "Show the fleet: live shard processes, routing counters, summed      request/cache tallies, forward latency."
    in
    Cmd.v (Cmd.info "status" ~doc)
      Term.(const cmd_fleet_status $ socket_arg $ as_json)
  in
  let drain =
    let shard =
      let doc = "Shard index to drain (its socket under $(b,--run-dir))." in
      Arg.(required & pos 0 (some int) None & info [] ~docv:"SHARD" ~doc)
    in
    let doc =
      "Gracefully remove one shard process: send $(b,shutdown) straight      to its socket.  The router notices the dead connection, re-forwards      anything in flight and drops the shard from the ring — clients see      no errors."
    in
    Cmd.v (Cmd.info "drain" ~doc)
      Term.(const cmd_fleet_drain $ run_dir_arg $ shard)
  in
  let doc =
    "Run and manage a multi-process shard fleet: a consistent-hash router      in front of N independent planning daemons sharing a persistent plan      store."
  in
  Cmd.group (Cmd.info "fleet" ~doc) [ start; stop; status; drain ]

let main_cmd =
  let doc = "PathDriver-Wash: wash optimization for continuous-flow biochips" in
  let info = Cmd.info "pdw" ~version:Pdw_service.Version.version ~doc in
  Cmd.group info
    [ list_cmd; layout_cmd; necessity_cmd; run_cmd; compare_cmd; table2_cmd;
      render_cmd; animate_cmd; actuations_cmd; optimize_file_cmd;
      paths_cmd; verify_cmd; explain_cmd; serve_cmd; submit_cmd; loadgen_cmd;
      stats_cmd; fleet_cmd ]

let () = exit (Cmd.eval' main_cmd)
