(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section IV) plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table2    -- Table II only
     dune exec bench/main.exe -- fig4      -- Fig. 4 only
     dune exec bench/main.exe -- fig5      -- Fig. 5 only
     dune exec bench/main.exe -- motivating-- Figs. 2-3 walkthrough
     dune exec bench/main.exe -- ablate    -- PDW technique ablations
     dune exec bench/main.exe -- speed     -- Bechamel wall-clock runs

   Any job additionally accepts:

     --trace FILE   write a Chrome-trace JSON (chrome://tracing or
                    ui.perfetto.dev) of the run's spans and counters
     --stats        print the span summary tree and counter table
     --domains N    fan the harness out over N domains (default: sized
                    from the machine); each domain plans whole assays
                    with its own search arena and memos

   The trace flags turn instrumentation on; without them every probe is
   a no-op and the printed tables are byte-identical to an
   uninstrumented build.  [--domains] never changes any table either:
   every plan is computed on one domain, whichever it is. *)

module Benchmarks = Pdw_assay.Benchmarks
module Layout_builder = Pdw_biochip.Layout_builder
module Schedule = Pdw_synth.Schedule
module Synthesis = Pdw_synth.Synthesis
module Pdw = Pdw_wash.Pdw
module Dawo = Pdw_wash.Dawo
module Wash_plan = Pdw_wash.Wash_plan
module Metrics = Pdw_wash.Metrics
module Report = Pdw_wash.Report

module Domain_pool = Pdw_pool.Domain_pool
module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters
module Trace_export = Pdw_obs.Trace_export

(* [--domains N]: overrides the harness pool size; [None] leaves the
   machine-sized default. *)
let domains_override : int option ref = ref None

let table2_benchmarks () = Benchmarks.all ()

(* Per-benchmark fan-out: benchmarks are independent, so synthesis and
   optimization map over a domain pool sized from the machine
   ([Domain.recommended_domain_count], capped).  On a single-core host
   the pool degrades to the serial path.  [Domain_pool.map] preserves
   order, so every table prints exactly as the serial harness did. *)
let pooled f xs = Domain_pool.with_pool (fun pool -> Domain_pool.map pool f xs)

let synthesize_all () =
  pooled
    (fun (name, b) -> (name, b, Synthesis.synthesize b))
    (table2_benchmarks ())

let rows_of synthesized =
  pooled
    (fun (name, (b : Benchmarks.t), s) ->
      let dawo = Dawo.optimize s in
      let pdw = Pdw.optimize s in
      Report.row ~name
        ~device_count:(List.length b.Benchmarks.device_kinds)
        dawo pdw)
    synthesized

let rows = lazy (rows_of (synthesize_all ()))

let run_table2 () = Report.print_table2 Format.std_formatter (Lazy.force rows)
let run_fig4 () = Report.print_fig4 Format.std_formatter (Lazy.force rows)
let run_fig5 () = Report.print_fig5 Format.std_formatter (Lazy.force rows)

(* The motivating example (Section II, Figs. 2-3): the Fig. 1(c) assay on
   the Fig. 2(a) chip, baseline vs PDW. *)
let run_motivating () =
  let layout = Layout_builder.fig2_layout () in
  let s = Synthesis.synthesize ~layout (Benchmarks.motivating ()) in
  let pdw = Pdw.optimize s in
  Format.printf "Motivating example (Fig. 2(a) chip)@.%s@.@."
    (Pdw_biochip.Layout.render layout);
  Format.printf "Baseline schedule (no wash), T = %d s:@.%a@."
    (Schedule.assay_completion s.Synthesis.schedule)
    Schedule.pp s.Synthesis.schedule;
  Format.printf "PDW-optimized schedule (Fig. 3 analogue):@.%a@." Schedule.pp
    pdw.Wash_plan.schedule;
  Report.print_flow_paths Format.std_formatter pdw.Wash_plan.schedule;
  Format.printf "PDW: %a, %d washes, delay %+d s@." Metrics.pp
    pdw.Wash_plan.metrics pdw.Wash_plan.metrics.Metrics.n_wash
    pdw.Wash_plan.metrics.Metrics.t_delay

(* Ablations: each PDW technique switched off independently
   (DESIGN.md, "Key design choices"). *)
let ablation_variants =
  [
    ("PDW (full)", Pdw.default_config);
    ("no necessity", { Pdw.default_config with necessity = false });
    ("no integration", { Pdw.default_config with integrate = false });
    ("no time windows", { Pdw.default_config with conflict_aware = false });
  ]

let run_ablate () =
  Format.printf
    "@[<v>Ablation: PDW techniques switched off independently@,\
     (averages over the eight Table II benchmarks)@,@,\
     %-16s %8s %10s %8s %8s@," "Variant" "N_wash" "L_wash(mm)" "T_delay"
    "T_assay";
  let synthesized = synthesize_all () in
  List.iter
    (fun (label, config) ->
      let metrics =
        pooled
          (fun (_, _, s) -> (Pdw.optimize ~config s).Wash_plan.metrics)
          synthesized
      in
      let n = float_of_int (List.length metrics) in
      let avg f = List.fold_left (fun acc m -> acc +. f m) 0.0 metrics /. n in
      Format.printf "%-16s %8.1f %10.1f %8.1f %8.1f@," label
        (avg (fun m -> float_of_int m.Metrics.n_wash))
        (avg (fun m -> m.Metrics.l_wash_mm))
        (avg (fun m -> float_of_int m.Metrics.t_delay))
        (avg (fun m -> float_of_int m.Metrics.t_assay)))
    ablation_variants;
  Format.printf "@]@."

(* Architecture study (ours): the same assays on three chip
   architectures — the default street grid (single-cell devices), a
   single-ring bus, and "islands" with 1x3 serpentine devices.  Rings are
   cheapest to fabricate but share channels heavily; multi-cell devices
   triple the per-device wash targets. *)
let run_archcompare () =
  Format.printf
    "@[<v>Architecture comparison (PDW): N_wash / L_wash(mm) / T_assay@,@,     %-14s | %-18s | %-18s | %-18s@," "Benchmark" "street grid"
    "ring bus" "islands (1x3)";
  let rows =
    pooled
      (fun (name, (b : Benchmarks.t)) ->
        let reagents =
          List.length
            (Pdw_assay.Sequencing_graph.reagents b.Benchmarks.graph)
        in
        let ports = min 10 (max 4 reagents) in
        let run layout = Pdw.optimize (Synthesis.synthesize ?layout b) in
        let grid = run None in
        let ring =
          run
            (Some
               (Pdw_synth.Placement.ring_layout ~flow_ports:ports
                  ~device_kinds:b.Benchmarks.device_kinds ()))
        in
        let island =
          run
            (Some
               (Pdw_synth.Placement.island_layout ~flow_ports:ports
                  ~device_kinds:b.Benchmarks.device_kinds ()))
        in
        let cell (o : Wash_plan.outcome) =
          let m = o.Wash_plan.metrics in
          Printf.sprintf "%3d /%5.0f /%4d" m.Metrics.n_wash
            m.Metrics.l_wash_mm m.Metrics.t_assay
        in
        (name, cell grid, cell ring, cell island))
      (table2_benchmarks ())
  in
  List.iter
    (fun (name, grid, ring, island) ->
      Format.printf "%-14s | %-18s | %-18s | %-18s@," name grid ring island)
    rows;
  Format.printf "@]@."

(* Heuristic vs exact ILP wash paths (Eqs. (12)-(15)) on the motivating
   chip: the ILP is optimal per flush; the heuristic should stay close. *)
let run_ilppaths () =
  let layout = Layout_builder.fig2_layout () in
  let s = Synthesis.synthesize ~layout (Benchmarks.motivating ()) in
  let heuristic = Pdw.optimize s in
  let exact =
    Pdw.optimize
      ~config:
        {
          Pdw.default_config with
          use_ilp_paths = true;
          ilp_config =
            { Pdw_lp.Ilp.default_config with time_limit = 20.0 };
        }
      s
  in
  let hm = heuristic.Wash_plan.metrics and em = exact.Wash_plan.metrics in
  Format.printf
    "@[<v>Wash paths on the motivating chip: heuristic vs exact ILP@,     %-12s %6s %10s %8s@,%-12s %6d %10.0f %8d@,%-12s %6d %10.0f %8d@]@."
    "" "N_wash" "L_wash(mm)" "T_assay" "heuristic" hm.Metrics.n_wash
    hm.Metrics.l_wash_mm hm.Metrics.t_assay "exact ILP" em.Metrics.n_wash
    em.Metrics.l_wash_mm em.Metrics.t_assay

(* Scalability beyond the paper's sizes: random assays of growing size,
   PDW wall-clock and wash counts. *)
let run_scale () =
  Format.printf
    "@[<v>Scalability on random assays (seeded, PDW)@,     %6s %6s %8s %8s %10s@," "ops" "tasks" "N_wash" "T_assay" "time(ms)";
  List.iter
    (fun (min_ops, max_ops, seed) ->
      let b = Pdw_assay.Assay_gen.random ~min_ops ~max_ops ~seed () in
      let s = Synthesis.synthesize b in
      let t0 = Sys.time () in
      let o = Pdw.optimize s in
      let elapsed = (Sys.time () -. t0) *. 1000.0 in
      Format.printf "%6d %6d %8d %8d %10.1f@,"
        (Pdw_assay.Sequencing_graph.num_ops b.Pdw_assay.Benchmarks.graph)
        (List.length s.Synthesis.tasks)
        o.Wash_plan.metrics.Metrics.n_wash o.Wash_plan.metrics.Metrics.t_assay
        elapsed)
    [
      (5, 5, 11); (10, 10, 12); (15, 15, 13); (20, 20, 14); (30, 30, 15);
      (40, 40, 16);
    ];
  Format.printf "@]@."

(* Port-count design space (ours): more ports means shorter flush paths
   but more chip-area cost — how does wash overhead respond? *)
let run_ports () =
  Format.printf
    "@[<v>Port-count sweep (IVD, PDW)@,     %6s %8s %10s %8s %10s@," "ports" "N_wash" "L_wash(mm)" "T_assay"
    "buffer(ul)";
  let b = Benchmarks.ivd () in
  List.iter
    (fun ports ->
      let layout =
        Pdw_synth.Placement.layout ~flow_ports:ports ~waste_ports:ports
          ~device_kinds:b.Benchmarks.device_kinds ()
      in
      let o = Pdw.optimize (Synthesis.synthesize ~layout b) in
      let m = o.Wash_plan.metrics in
      Format.printf "%6d %8d %10.0f %8d %10.2f@," ports m.Metrics.n_wash
        m.Metrics.l_wash_mm m.Metrics.t_assay m.Metrics.buffer_ul)
    [ 2; 3; 4; 6; 8 ];
  Format.printf "@]@."

(* Batch processing (ours): the same protocol on k samples back to back
   on one chip — how does wash overhead scale with throughput? *)
let run_batch () =
  Format.printf
    "@[<v>Batch processing: PCR on k samples, one chip (PDW)@,     %4s %6s %8s %8s %12s %14s@," "k" "ops" "N_wash" "T_assay" "T/sample"
    "wash_s/sample";
  let base = Benchmarks.pcr () in
  List.iter
    (fun k ->
      let graph =
        Pdw_assay.Sequencing_graph.repeat base.Benchmarks.graph k
      in
      let b = { base with Benchmarks.graph } in
      let o = Pdw.optimize (Synthesis.synthesize b) in
      let m = o.Wash_plan.metrics in
      Format.printf "%4d %6d %8d %8d %12.1f %14.1f@," k
        (Pdw_assay.Sequencing_graph.num_ops graph)
        m.Metrics.n_wash m.Metrics.t_assay
        (float_of_int m.Metrics.t_assay /. float_of_int k)
        (float_of_int m.Metrics.total_wash_time /. float_of_int k))
    [ 1; 2; 3; 4 ];
  Format.printf "@]@."

(* Binding optimization (ours): round-robin vs local-search device
   binding, feeding the same PDW pipeline. *)
let run_binding () =
  Format.printf
    "@[<v>Device binding: round-robin vs optimized (PDW)@,     %-14s | %8s %8s | %8s %8s@," "Benchmark" "rr:N" "rr:Ta" "opt:N"
    "opt:Ta";
  let rows =
    pooled
      (fun (name, b) ->
        let rr =
          Pdw.optimize (Synthesis.synthesize ~optimize_binding:false b)
        in
        let opt =
          Pdw.optimize (Synthesis.synthesize ~optimize_binding:true b)
        in
        (name, rr.Wash_plan.metrics, opt.Wash_plan.metrics))
      (table2_benchmarks ())
  in
  List.iter
    (fun (name, (a : Metrics.t), (o : Metrics.t)) ->
      Format.printf "%-14s | %8d %8d | %8d %8d@," name a.Metrics.n_wash
        a.Metrics.t_assay o.Metrics.n_wash o.Metrics.t_assay)
    rows;
  Format.printf "@]@."

(* Sensitivity to the dissolution time t_d of Eq. (17): how strongly do
   the results depend on the one physical parameter the paper takes from
   [11]?  Wash durations scale with t_d; counts and paths should not. *)
let run_sensitivity () =
  Format.printf
    "@[<v>Sensitivity to dissolution time t_d (PCR, PDW)@,     %6s %8s %10s %8s %10s@," "t_d(s)" "N_wash" "L_wash(mm)" "T_assay"
    "wash_time";
  let b = Benchmarks.pcr () in
  let s = Synthesis.synthesize b in
  List.iter
    (fun t_d ->
      let o =
        Pdw.optimize ~config:{ Pdw.default_config with dissolution = t_d } s
      in
      let m = o.Wash_plan.metrics in
      Format.printf "%6d %8d %10.0f %8d %10d@," t_d m.Metrics.n_wash
        m.Metrics.l_wash_mm m.Metrics.t_assay m.Metrics.total_wash_time)
    [ 0; 1; 2; 4; 8 ];
  Format.printf "@]@."

(* Wall-clock of the two optimizers per benchmark (the paper caps Gurobi
   at 15 min; both of our planners answer in well under a second). *)
let run_speed () =
  let open Bechamel in
  let synthesized = synthesize_all () in
  let tests =
    List.concat_map
      (fun (name, _, s) ->
        [
          Test.make ~name:(name ^ "/PDW")
            (Staged.stage (fun () -> ignore (Pdw.optimize s)));
          Test.make ~name:(name ^ "/DAWO")
            (Staged.stage (fun () -> ignore (Dawo.optimize s)));
        ])
      synthesized
  in
  let test = Test.make_grouped ~name:"wash-optimization" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "@[<v>Optimizer wall-clock (ms per run, OLS estimate)@,";
  let entries =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-44s %10.2f ms@," name (est /. 1e6)
      | Some _ | None -> Format.printf "%-44s (no estimate)@," name)
    entries;
  Format.printf "@]@."

(* Span names whose total duration run_perf folds into
   BENCH_solver.json as per-stage wall time. *)
let stage_names =
  [
    "synthesis.synthesize"; "plan.necessity"; "plan.grouping"; "plan.paths";
    "plan.reschedule"; "simplex.solve"; "bb.node"; "router.flush";
  ]

let exact_ilp_config ~warm_start =
  {
    Pdw.default_config with
    use_ilp_paths = true;
    ilp_config =
      { Pdw_lp.Ilp.default_config with time_limit = 20.0; warm_start };
  }

(* Provenance stamped into BENCH_solver.json: which commit produced the
   numbers and when.  The [compare] gate ignores these fields. *)
let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")

let iso8601_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Pdw_obs.Json.to_string json);
      output_string oc "\n")

(* Every wall in BENCH_solver.json is the median of this many rounds,
   stored with the rounds' min and max: a single run of a 1-40 ms
   planner call wobbles by more than [compare]'s default tolerance. *)
let perf_rounds = 5

(* Machine-readable solver timings (BENCH_solver.json): wall-clock for
   the PDW and DAWO optimizers on every Table II benchmark and storage
   assay, and for the exact-ILP wash-path run on the motivating chip
   with the warm-started dual simplex on and off; per-stage wall time,
   allocation and solver counters from the observability layer.  Future
   PRs diff this file to track the perf trajectory. *)
let run_perf () =
  let module J = Pdw_obs.Json in
  let now () = Unix.gettimeofday () in
  (* Each timed call adds its wall to [samples] under its label; every
     round times the same calls in the same order. *)
  let samples = Hashtbl.create 64 in
  let timed label f =
    let t0 = now () in
    let r = f () in
    let ms = (now () -. t0) *. 1000.0 in
    Hashtbl.replace samples label
      (ms :: Option.value ~default:[] (Hashtbl.find_opt samples label));
    r
  in
  (* Stage timings and counters come from the observability layer.
     Snapshot the pre-existing state so a combined "--trace" run keeps
     its spans and we still report deltas for this job only. *)
  Trace.set_enabled true;
  Counters.set_enabled true;
  (* Snapshots are taken before any pool spawns and read back only after
     every [Domain_pool.with_pool] has joined its workers — counter cells
     are plain atomics, so reading mid-flight could tear the deltas. *)
  let events_before = Trace.num_events () in
  let counters_before = Counters.snapshot () in
  let pool_domains, synthesized =
    Domain_pool.with_pool ?size:!domains_override (fun pool ->
        ( Domain_pool.size pool,
          Domain_pool.map pool
            (fun (name, b) -> (name, Synthesis.synthesize b))
            (table2_benchmarks ()) ))
  in
  let exact_s =
    let layout = Layout_builder.fig2_layout () in
    Synthesis.synthesize ~layout (Benchmarks.motivating ())
  in
  (* The storage-pressure family, timed like the Table II rows.  Holds
     are counted on the baseline synthesis (pre-wash) schedule: the
     structural pressure of the assay, independent of either planner. *)
  let storage =
    List.map
      (fun (name, (b : Benchmarks.t)) ->
        let s = Synthesis.synthesize b in
        let holds = Schedule.holds s.Synthesis.schedule in
        let t_hold =
          List.fold_left
            (fun acc h ->
              acc + (h.Schedule.hold_until - h.Schedule.hold_start))
            0 holds
        in
        (name, s, List.length holds, t_hold))
      (Benchmarks.storage ())
  in
  let both label s =
    let pdw = timed (label ^ "/pdw") (fun () -> Pdw.optimize s) in
    let dawo = timed (label ^ "/dawo") (fun () -> Dawo.optimize s) in
    (pdw, dawo)
  in
  let round () =
    let per_bench =
      timed "optimize" (fun () ->
          List.map (fun (name, s) -> (name, both name s)) synthesized)
    in
    let warm =
      timed "exact/warm" (fun () ->
          Pdw.optimize ~config:(exact_ilp_config ~warm_start:true) exact_s)
    in
    let cold =
      timed "exact/cold" (fun () ->
          Pdw.optimize ~config:(exact_ilp_config ~warm_start:false) exact_s)
    in
    let per_storage =
      List.map
        (fun (name, s, holds, t_hold) ->
          (name, holds, t_hold, both ("storage/" ^ name) s))
        storage
    in
    (per_bench, (warm, cold), per_storage)
  in
  (* Stages, allocations and counters cover the first round only: one
     run of every planner call, whatever [perf_rounds] is. *)
  let per_bench, (warm, cold), per_storage = round () in
  let stage_ms =
    List.map
      (fun (name, ms) -> (name, J.Float ms))
      (Trace_export.stage_totals ~since:events_before ~names:stage_names ())
  in
  let stage_alloc_words =
    List.map
      (fun (name, (minor, major)) ->
        (name, J.Obj [ ("minor", J.Float minor); ("major", J.Float major) ]))
      (Trace_export.stage_allocs ~since:events_before ~names:stage_names ())
  in
  let counters_json =
    List.map
      (fun (name, _, v) -> (name, J.Int v))
      (Counters.delta ~since:counters_before)
  in
  for _ = 2 to perf_rounds do
    ignore (round ())
  done;
  (* The median, min and max of one label's rounds. *)
  let wall label =
    let xs = Array.of_list (Hashtbl.find samples label) in
    Array.sort Float.compare xs;
    (xs.(Array.length xs / 2), xs.(0), xs.(Array.length xs - 1))
  in
  let planner_fields label (o : Wash_plan.outcome) =
    let m = o.Wash_plan.metrics in
    let median, lo, hi = wall label in
    [
      ("wall_ms", J.Float median);
      ("wall_min_ms", J.Float lo);
      ("wall_max_ms", J.Float hi);
      ("n_wash", J.Int m.Metrics.n_wash);
      ("l_wash_mm", J.Float m.Metrics.l_wash_mm);
      ("t_assay_s", J.Int m.Metrics.t_assay);
    ]
  in
  let optimize_ms, optimize_lo, optimize_hi = wall "optimize" in
  let json =
    J.Obj
      [
        ("schema", J.Str "pathdriver-wash/bench-solver/v5");
        ("mode", J.Str "perf");
        ("git_commit", J.Str (git_commit ()));
        ("generated_at", J.Str (iso8601_now ()));
        ("domains", J.Int pool_domains);
        ("host_cores", J.Int (Domain.recommended_domain_count ()));
        ("rounds", J.Int perf_rounds);
        ( "benchmarks",
          J.Arr
            (List.map
               (fun (name, (pdw, dawo)) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("pdw", J.Obj (planner_fields (name ^ "/pdw") pdw));
                     ("dawo", J.Obj (planner_fields (name ^ "/dawo") dawo));
                   ])
               per_bench) );
        ( "storage",
          J.Arr
            (List.map
               (fun (name, holds, t_hold, (pdw, dawo)) ->
                 let label m = "storage/" ^ name ^ "/" ^ m in
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("holds", J.Int holds);
                     ("t_hold_s", J.Int t_hold);
                     ("pdw", J.Obj (planner_fields (label "pdw") pdw));
                     ("dawo", J.Obj (planner_fields (label "dawo") dawo));
                   ])
               per_storage) );
        ("optimize_wall_ms", J.Float optimize_ms);
        ("optimize_wall_min_ms", J.Float optimize_lo);
        ("optimize_wall_max_ms", J.Float optimize_hi);
        ("stage_ms", J.Obj stage_ms);
        ("stage_alloc_words", J.Obj stage_alloc_words);
        ("counters", J.Obj counters_json);
        ( "exact_ilp",
          J.Obj
            [
              ("name", J.Str "Motivating");
              ("warm_start", J.Obj (planner_fields "exact/warm" warm));
              ("cold_start", J.Obj (planner_fields "exact/cold" cold));
            ] );
      ]
  in
  let path = "BENCH_solver.json" in
  write_json path json;
  let warm_ms, _, _ = wall "exact/warm" and cold_ms, _, _ = wall "exact/cold" in
  Format.printf
    "perf: wrote %s (median of %d rounds: optimize wall %.1f ms, exact ILP \
     warm %.1f ms / cold %.1f ms)@."
    path perf_rounds optimize_ms warm_ms cold_ms

(* Storage-pressure assays: the park/fetch workload family, PDW vs
   DAWO, with the hold pressure each assay puts on the channel network.
   Doubles as the CI smoke gate: a storage-blind grouping must never
   beat the storage-aware planner on wash count, so PDW > DAWO on any
   assay hard-fails the job. *)
let storage_rows () =
  pooled
    (fun (name, (b : Benchmarks.t)) ->
      let s = Synthesis.synthesize b in
      let pdw = Pdw.optimize s in
      let dawo = Dawo.optimize s in
      let holds = Schedule.holds s.Synthesis.schedule in
      let t_hold =
        List.fold_left
          (fun acc h -> acc + (h.Schedule.hold_until - h.Schedule.hold_start))
          0 holds
      in
      let parks =
        List.length
          (Pdw_assay.Sequencing_graph.parked_ops b.Benchmarks.graph)
      in
      (name, b, parks, List.length holds, t_hold, pdw, dawo))
    (Benchmarks.storage ())

let run_storage () =
  Format.printf
    "@[<v>Storage-pressure assays (distributed channel storage)@,@,\
     %-16s %4s %6s %6s %9s %13s %16s %14s@," "Assay" "|O|" "parks" "holds"
    "t_hold(s)" "N_wash P/D" "L_wash(mm) P/D" "T_assay(s) P/D";
  let rows = storage_rows () in
  List.iter
    (fun (name, (b : Benchmarks.t), parks, holds, t_hold,
          (pdw : Wash_plan.outcome), (dawo : Wash_plan.outcome)) ->
      let p = pdw.Wash_plan.metrics and d = dawo.Wash_plan.metrics in
      Format.printf "%-16s %4d %6d %6d %9d %8d/%-4d %9.1f/%-6.1f %8d/%-5d@,"
        name
        (Pdw_assay.Sequencing_graph.num_ops b.Benchmarks.graph)
        parks holds t_hold p.Metrics.n_wash d.Metrics.n_wash
        p.Metrics.l_wash_mm d.Metrics.l_wash_mm p.Metrics.t_assay
        d.Metrics.t_assay)
    rows;
  Format.printf "@]@.";
  let regressions =
    List.filter
      (fun (_, _, _, _, _, (pdw : Wash_plan.outcome),
            (dawo : Wash_plan.outcome)) ->
        pdw.Wash_plan.metrics.Metrics.n_wash
        > dawo.Wash_plan.metrics.Metrics.n_wash)
      rows
  in
  List.iter
    (fun (name, _, _, _, _, (pdw : Wash_plan.outcome),
          (dawo : Wash_plan.outcome)) ->
      Format.printf
        "FAIL %s: PDW %d washes > DAWO %d (storage-aware planner lost to \
         the storage-blind baseline)@."
        name pdw.Wash_plan.metrics.Metrics.n_wash
        dawo.Wash_plan.metrics.Metrics.n_wash)
    regressions;
  if regressions <> [] then exit 1

(* --- the serving benchmark (BENCH_serve.json) ---

   Every campaign drives daemons spawned from this executable (the
   hidden [daemon] and [routerd] modes, fork/exec through
   [Proc.spawn_self]: a bare fork is unsafe once this runtime has
   domains), so the loadgen's client threads never share a runtime with
   the server they measure.  Each campaign gets fresh daemons, so the
   stats read from the front socket at its end are that campaign's own,
   and every reply is verified byte-identical to a local one-shot plan.

   - The worker curve: one daemon at 1, 2, 4 and 8 worker domains, two
     campaigns per setting.  [cached] sends thousands of pipelined
     requests over three benchmark specs, all cache hits after the
     warm-up.  Hits are answered by connection threads, so worker count
     can only harm this curve (idle domains stretch every stop-the-world
     pause); it is gated at every setting.  [planner] sends [no_cache]
     requests, each planned on a worker domain, and is gated wherever the
     host can run the workers in parallel (workers <= host cores).
   - The process curve: 1, 2 and 4 daemons of two workers behind the
     fleet router, sharing one plan store (so later campaigns start
     store-warm), on a seeded cached campaign.

   Each curve is gated against its own first point, not the previous
   one, so per-step wobbles cannot compound into a tolerated slide; on a
   host with >= 4 cores the planner and process curves must also reach
   2x their first point at 4.  The cached and process campaigns run
   [serve_rounds] times with the settings interleaved, and each of
   their points is the campaign with the median throughput: one
   campaign disturbed by the shared host moves no gate.  [host_cores]
   is recorded so readers can tell the regimes apart.  A separate
   artifact from BENCH_solver.json, so the solver compare gate never
   sees it. *)

module Loadgen = Pdw_service.Loadgen
module Protocol = Pdw_service.Protocol
module Client = Pdw_service.Client
module Proc = Pdw_service.Proc

type load = {
  clients : int;
  per_client : int;
  warmup : int;
  pipeline : int;
  no_cache : bool;
  seed : int option;
}

(* 8 x 2048 = 16,384 measured requests per campaign. *)
let cached_load =
  { clients = 8; per_client = 2048; warmup = 64; pipeline = 32;
    no_cache = false; seed = None }

(* 512 requests, sized so that they cannot shed: at most
   [clients * pipeline] = 32 jobs are in flight against a queue limit
   of 128. *)
let planner_load =
  { clients = 8; per_client = 64; warmup = 32; pipeline = 4;
    no_cache = true; seed = None }

(* 3 settings x 8 x 4608 = 110,592 measured requests per round. *)
let fleet_load =
  { clients = 8; per_client = 4608; warmup = 64; pipeline = 32;
    no_cache = false; seed = Some 424242 }

let serve_workers = [ 1; 2; 4; 8 ]
let fleet_procs = [ 1; 2; 4 ]
let fleet_workers = 2
let serve_rounds = 3
let serve_tolerance = 0.85
let serve_benchmarks = [ "pcr"; "ivd"; "proteinsplit" ]

let run_daemon socket workers store =
  let module Server = Pdw_service.Server in
  Server.wait
    (Server.start
       {
         (Server.default_config ~socket_path:socket) with
         workers;
         queue_limit = 128;
         cache_capacity = 64;
         job_timeout_ms = 120_000;
         store_dir = store;
       })

let run_routerd socket shard_sockets =
  let module Router = Pdw_service.Router in
  Router.wait
    (Router.start (Router.default_config ~socket_path:socket ~shard_sockets))

let sockets_made = ref 0

(* One campaign on fresh daemons: [daemons] processes of [workers]
   worker domains each, behind the router when [routed].  It ends with
   the front socket's stats and a shutdown through that socket (the
   router passes it on to its shards), so the reap is a join, not a
   kill. *)
let campaign ~dir ~label ~daemons ~workers ?store ~routed load =
  let fresh () =
    incr sockets_made;
    Filename.concat dir (Printf.sprintf "%d.sock" !sockets_made)
  in
  let ready path =
    if not (Proc.wait_ready path ~timeout_s:15.0) then
      failwith
        (Printf.sprintf "serve bench (%s): a daemon did not come up" label)
  in
  let shards = List.init daemons (fun _ -> fresh ()) in
  let pids =
    ref
      (List.map
         (fun s ->
           Proc.spawn_self
             ([ "daemon"; s; string_of_int workers ] @ Option.to_list store))
         shards)
  in
  Fun.protect ~finally:(fun () -> Proc.reap !pids) @@ fun () ->
  List.iter ready shards;
  let front =
    if not routed then List.hd shards
    else begin
      let path = fresh () in
      pids := Proc.spawn_self ("routerd" :: path :: shards) :: !pids;
      ready path;
      path
    end
  in
  let s =
    Loadgen.run ~socket_path:front ~clients:load.clients
      ~per_client:load.per_client ~warmup:load.warmup ~pipeline:load.pipeline
      ~no_cache:load.no_cache ?seed:load.seed ~verify:true
      (List.map
         (fun name -> Protocol.spec (Protocol.Benchmark name))
         serve_benchmarks)
  in
  let request req = Client.with_client front (fun c -> Client.request c req) in
  let stats =
    match request Protocol.Stats with
    | Ok (Protocol.Stats_reply j) -> j
    | _ -> failwith (Printf.sprintf "serve bench (%s): no stats reply" label)
  in
  ignore (request Protocol.Shutdown);
  let fail what =
    failwith (Printf.sprintf "serve bench (%s): %s" label what)
  in
  if s.Loadgen.mismatches > 0 then fail "served plans diverged from local runs";
  if s.Loadgen.errors > 0 || s.Loadgen.timeouts > 0 then
    fail "errors or timeouts under load";
  if s.Loadgen.shed > 0 then fail "shed at benchmark load";
  Format.printf
    "serve: %-17s %7.1f plans/s  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f ms@."
    label s.Loadgen.throughput s.Loadgen.p50_ms s.Loadgen.p95_ms
    s.Loadgen.p99_ms;
  (s, stats)

(* [serve_rounds] campaigns per setting, the settings interleaved in
   each round; per setting, the rounds' throughputs and the campaign
   with the median one. *)
let median_campaigns settings run =
  let rounds = List.init serve_rounds (fun _ -> List.map run settings) in
  List.mapi
    (fun i x ->
      let runs = List.map (fun round -> List.nth round i) rounds in
      let by_rps =
        List.sort
          (fun ((a : Loadgen.summary), _) ((b : Loadgen.summary), _) ->
            Float.compare a.throughput b.throughput)
          runs
      in
      ( x,
        List.map (fun ((s : Loadgen.summary), _) -> s.throughput) runs,
        List.nth by_rps (serve_rounds / 2) ))
    settings

(* The one gate of all three curves: every point up to [upto] within
   [serve_tolerance] of the curve's first point and, when the curve
   [scales] on a host with >= 4 cores, 2x its first point at 4. *)
let gate ~host_cores ~label ~axis ~upto ~scales curve =
  match curve with
  | [] -> ()
  | (x0, base) :: rest ->
    List.iter
      (fun (x, rps) ->
        if x <= upto && rps < serve_tolerance *. base then
          failwith
            (Printf.sprintf
               "serve bench (%s): throughput inverted: %.1f rps at %d %s < \
                %.2f x %.1f rps at %d"
               label rps x axis serve_tolerance base x0))
      rest;
    match List.assoc_opt 4 curve with
    | Some at4 when scales && host_cores >= 4 && at4 < 2.0 *. base ->
      failwith
        (Printf.sprintf "serve bench (%s): %d-core host but only %.2fx at 4 %s"
           label host_cores (at4 /. base) axis)
    | _ -> ()

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run_serve () =
  let module J = Pdw_obs.Json in
  let host_cores = Domain.recommended_domain_count () in
  let dir = Filename.temp_file "pdw-serve-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try remove_tree dir with Sys_error _ -> ())
  @@ fun () ->
  let field stats k =
    match J.member k stats with
    | Some v -> v
    | None -> failwith (Printf.sprintf "serve bench: stats carry no %s" k)
  in
  let depth_peak stats =
    match J.member "depth_peak" (field stats "queue") with
    | Some (J.Int p) -> p
    | _ -> failwith "serve bench: stats carry no queue.depth_peak"
  in
  let server_section stats =
    J.Obj
      (List.map
         (fun k -> (k, field stats k))
         [ "latency_ms"; "queue_wait_ms"; "service_ms" ])
  in
  let rps_list rs = J.Arr (List.map (fun r -> J.Float r) rs) in
  let on_daemon label load workers =
    campaign ~dir ~daemons:1 ~workers ~routed:false load
      ~label:(Printf.sprintf "workers=%d %s" workers label)
  in
  let cached =
    median_campaigns serve_workers (on_daemon "cached" cached_load)
  in
  let planner = List.map (on_daemon "planner" planner_load) serve_workers in
  let store = Filename.concat dir "store" in
  let fleet =
    median_campaigns fleet_procs (fun procs ->
        campaign ~dir ~daemons:procs ~workers:fleet_workers ~store ~routed:true
          fleet_load
          ~label:(Printf.sprintf "procs=%d cached" procs))
  in
  let curve =
    List.map2 (fun x ((s : Loadgen.summary), _) -> (x, s.throughput))
  in
  let medians = List.map (fun (_, _, median) -> median) in
  gate ~host_cores ~label:"cached" ~axis:"workers" ~upto:max_int ~scales:false
    (curve serve_workers (medians cached));
  gate ~host_cores ~label:"planner" ~axis:"workers" ~upto:host_cores
    ~scales:true (curve serve_workers planner);
  gate ~host_cores ~label:"fleet" ~axis:"processes" ~upto:max_int ~scales:true
    (curve fleet_procs (medians fleet));
  let runs =
    List.map2
      (fun (workers, rounds_rps, (c, c_stats)) (p, p_stats) ->
        J.Obj
          [
            ("workers", J.Int workers);
            ( "queue_depth_peak",
              J.Int (max (depth_peak c_stats) (depth_peak p_stats)) );
            ("cached", Loadgen.summary_json c);
            ("cached_rounds_rps", rps_list rounds_rps);
            ("cached_server", server_section c_stats);
            ("planner", Loadgen.summary_json p);
            ("planner_server", server_section p_stats);
          ])
      cached planner
  in
  let settings =
    List.map
      (fun (procs, rounds_rps, (s, router)) ->
        J.Obj
          [
            ("procs", J.Int procs);
            ("shard_workers", J.Int fleet_workers);
            ("cached", Loadgen.summary_json s);
            ("rounds_rps", rps_list rounds_rps);
            ("router", router);
          ])
      fleet
  in
  write_json "BENCH_serve.json"
    (J.Obj
       [
         ("schema", J.Str "pathdriver-wash/bench-serve/v7");
         ("git_commit", J.Str (git_commit ()));
         ("generated_at", J.Str (iso8601_now ()));
         ("host_cores", J.Int host_cores);
         ("tolerance", J.Float serve_tolerance);
         ("rounds", J.Int serve_rounds);
         ("benchmarks", J.Arr (List.map (fun n -> J.Str n) serve_benchmarks));
         ("runs", J.Arr runs);
         ( "fleet",
           J.Obj
             [
               ("host_cores", J.Int host_cores);
               ("tolerance", J.Float serve_tolerance);
               ( "total_requests",
                 J.Int
                   (serve_rounds * List.length fleet_procs * fleet_load.clients
                  * fleet_load.per_client) );
               ("settings", J.Arr settings);
             ] );
       ]);
  Format.printf "serve: wrote BENCH_serve.json@."

(* The CI perf-regression gate: diff two BENCH_solver.json snapshots.
   Solution metrics — n_wash, l_wash_mm, t_assay_s — must be identical:
   any drift means planner behaviour changed, and the gate hard-fails.
   Wall times wobble with machine and load, so they fail only beyond
   [tolerance], the maximum allowed new/baseline ratio; since schema v5
   each [wall_ms] is the median of [perf_rounds] runs, and the gate
   judges those medians.  Provenance fields (git_commit, generated_at,
   domains, host_cores, rounds) are ignored, as is any field this gate
   does not know about — so the schema may grow new sections without
   invalidating old baselines.  Schemas only need to agree on the
   family (the part before the trailing version segment); a version
   difference is reported but is not a failure. *)
let run_compare ~tolerance baseline_path new_path =
  let module J = Pdw_obs.Json in
  let load path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m -> Error m
    | text -> (
      match J.parse text with
      | Error m -> Error (Printf.sprintf "%s: %s" path m)
      | Ok j -> Ok j)
  in
  match (load baseline_path, load new_path) with
  | Error m, _ | _, Error m ->
    prerr_endline ("compare: " ^ m);
    1
  | Ok base, Ok next ->
    let failures = ref 0 in
    let checks = ref 0 in
    let fail fmt =
      incr failures;
      Printf.ksprintf (fun s -> Printf.printf "FAIL %s\n" s) fmt
    in
    let str k j = Option.bind (J.member k j) J.to_str in
    let num k j = Option.bind (J.member k j) J.to_float in
    let schema_family s =
      match String.rindex_opt s '/' with
      | Some i -> String.sub s 0 i
      | None -> s
    in
    (match (str "schema" base, str "schema" next) with
    | Some a, Some b when a = b -> ()
    | Some a, Some b when schema_family a = schema_family b ->
      Printf.printf "  note schema %s vs %s (same family; comparing)\n" a b
    | a, b ->
      fail "schema mismatch: %s vs %s"
        (Option.value a ~default:"(none)")
        (Option.value b ~default:"(none)"));
    let bench_list j =
      match Option.bind (J.member "benchmarks" j) J.to_list with
      | None -> []
      | Some l ->
        List.filter_map
          (fun o ->
            match str "name" o with Some n -> Some (n, o) | None -> None)
          l
    in
    let check_entry label b n =
      List.iter
        (fun k ->
          incr checks;
          match (num k b, num k n) with
          | Some x, Some y when x = y -> ()
          | Some x, Some y ->
            fail "%s %s: %g -> %g (solution metric changed)" label k x y
          | _ -> fail "%s %s: missing" label k)
        [ "n_wash"; "l_wash_mm"; "t_assay_s" ];
      incr checks;
      match (num "wall_ms" b, num "wall_ms" n) with
      | Some x, Some y ->
        if x > 0.0 && y > tolerance *. x then
          fail "%s wall_ms: %.1f -> %.1f (over %.2fx tolerance)" label x y
            tolerance
        else
          Printf.printf "  ok %-28s wall %8.1f -> %8.1f ms%s\n" label x y
            (match (num "wall_min_ms" n, num "wall_max_ms" n) with
            | Some lo, Some hi -> Printf.sprintf " (%.1f-%.1f)" lo hi
            | _ -> "")
      | _ -> fail "%s wall_ms: missing" label
    in
    let base_benches = bench_list base in
    let next_benches = bench_list next in
    List.iter
      (fun (name, b) ->
        match List.assoc_opt name next_benches with
        | None -> fail "benchmark %s: missing from %s" name new_path
        | Some n ->
          List.iter
            (fun m ->
              match (J.member m b, J.member m n) with
              | Some bo, Some no -> check_entry (name ^ "/" ^ m) bo no
              | _ -> fail "benchmark %s: method %s missing" name m)
            [ "pdw"; "dawo" ])
      base_benches;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name base_benches) then
          fail "benchmark %s: not in baseline" name)
      next_benches;
    (* The storage-pressure family, gated exactly like the Table II
       rows, plus its structural metrics: hold count and total hold
       time are properties of the synthesized schedule, so any drift is
       a planner-behaviour change.  Skipped when either snapshot
       predates the section, keeping old baselines valid. *)
    (match (J.member "storage" base, J.member "storage" next) with
    | Some _, Some _ ->
      let storage_list j =
        match Option.bind (J.member "storage" j) J.to_list with
        | None -> []
        | Some l ->
          List.filter_map
            (fun o ->
              match str "name" o with Some n -> Some (n, o) | None -> None)
            l
      in
      let base_storage = storage_list base in
      let next_storage = storage_list next in
      List.iter
        (fun (name, b) ->
          match List.assoc_opt name next_storage with
          | None -> fail "storage assay %s: missing from %s" name new_path
          | Some n ->
            List.iter
              (fun k ->
                incr checks;
                match (num k b, num k n) with
                | Some x, Some y when x = y -> ()
                | Some x, Some y ->
                  fail "storage %s %s: %g -> %g (hold structure changed)"
                    name k x y
                | _ -> fail "storage %s %s: missing" name k)
              [ "holds"; "t_hold_s" ];
            List.iter
              (fun m ->
                match (J.member m b, J.member m n) with
                | Some bo, Some no ->
                  check_entry ("storage/" ^ name ^ "/" ^ m) bo no
                | _ -> fail "storage assay %s: method %s missing" name m)
              [ "pdw"; "dawo" ])
        base_storage;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name base_storage) then
            fail "storage assay %s: not in baseline" name)
        next_storage
    | _ ->
      Printf.printf "  note storage section absent; storage gate skipped\n");
    (match (J.member "exact_ilp" base, J.member "exact_ilp" next) with
    | Some b, Some n ->
      List.iter
        (fun m ->
          match (J.member m b, J.member m n) with
          | Some bo, Some no -> check_entry ("exact_ilp/" ^ m) bo no
          | _ -> fail "exact_ilp/%s: missing" m)
        [ "warm_start"; "cold_start" ]
    | _ -> fail "exact_ilp: missing");
    (match (num "optimize_wall_ms" base, num "optimize_wall_ms" next) with
    | Some x, Some y when x > 0.0 && y > tolerance *. x ->
      fail "optimize_wall_ms: %.1f -> %.1f (over %.2fx tolerance)" x y
        tolerance
    | Some _, Some _ -> ()
    | _ -> fail "optimize_wall_ms: missing");
    (* Stage-allocation budget.  The LP-core stages earn a hard gate of
       their own: the flat-arena rebuild exists to keep the solver off
       the allocator, so a minor-word regression beyond 10% over the
       committed baseline is a structural leak (a boxed float sneaking
       back into a pivot loop), not measurement noise.  Other stages are
       not gated here — their budgets are owned by their own PRs.  The
       check is skipped when either snapshot predates the
       [stage_alloc_words] section, so old baselines stay valid. *)
    (match
       (J.member "stage_alloc_words" base, J.member "stage_alloc_words" next)
     with
    | Some b, Some n ->
      List.iter
        (fun stage ->
          match (J.member stage b, J.member stage n) with
          | Some bo, Some no -> (
            incr checks;
            match (num "minor" bo, num "minor" no) with
            | Some x, Some y when x > 0.0 && y > 1.1 *. x ->
              fail "alloc %s minor: %.0f -> %.0f words (over 1.10x budget)"
                stage x y
            | Some x, Some y ->
              Printf.printf "  ok alloc %-22s minor %9.0f -> %9.0f words\n"
                stage x y
            | _ -> fail "alloc %s: minor field missing" stage)
          | _ ->
            Printf.printf "  note alloc %s: absent from a snapshot; skipped\n"
              stage)
        [ "simplex.solve"; "bb.node" ]
    | _ ->
      Printf.printf
        "  note stage_alloc_words absent; allocation budget skipped\n");
    if !failures = 0 then begin
      Printf.printf "compare: OK (%d checks, wall-time tolerance %.2fx)\n"
        !checks tolerance;
      0
    end
    else begin
      Printf.printf "compare: FAIL (%d finding(s) across %d checks)\n"
        !failures !checks;
      1
    end

let usage () =
  print_endline
    "usage: main.exe [all|table2|fig4|fig5|motivating|ablate|archcompare|ilppaths|scale|sensitivity|binding|batch|ports|speed|storage|perf|serve] [--trace FILE] [--stats] [--domains N]\n\
    \       main.exe compare BASELINE.json NEW.json [--tolerance RATIO]"

(* Pull [--trace FILE] / [--stats] / [--domains N] out of the argument
   list; the trace flags enable the observability layer before any job
   runs. *)
let parse_obs_flags args =
  let rec go acc trace stats domains = function
    | [] -> (List.rev acc, trace, stats, domains)
    | "--stats" :: rest -> go acc trace true domains rest
    | "--trace" :: file :: rest -> go acc (Some file) stats domains rest
    | "--domains" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> go acc trace stats (Some n) rest
      | Some _ | None ->
        usage ();
        exit 1)
    | [ "--trace" ] | [ "--domains" ] ->
      usage ();
      exit 1
    | a :: rest -> go (a :: acc) trace stats domains rest
  in
  go [] None false None args

(* The default planner config never enters the LP layer (heuristic wash
   paths), so an instrumented run tops itself up with one silent
   exact-ILP solve on the motivating chip: the exported trace then
   always carries simplex-solve and B&B-node spans alongside the
   planner-phase and router spans, whatever job was selected. *)
let run_ilp_probe () =
  let layout = Layout_builder.fig2_layout () in
  let s = Synthesis.synthesize ~layout (Benchmarks.motivating ()) in
  ignore (Pdw.optimize ~config:(exact_ilp_config ~warm_start:true) s)

let () =
  (* Hidden daemon modes, dispatched before anything else: the serving
     benchmark re-execs this very binary as its daemons and its router.
     Not part of the public job list. *)
  (match List.tl (Array.to_list Sys.argv) with
  | "daemon" :: socket :: workers :: ([] | [ _ ] as store) ->
    run_daemon socket (int_of_string workers) (List.nth_opt store 0);
    exit 0
  | "routerd" :: socket :: (_ :: _ as shard_sockets) ->
    run_routerd socket shard_sockets;
    exit 0
  | _ -> ());
  let args, trace_file, stats, domains =
    parse_obs_flags (List.tl (Array.to_list Sys.argv))
  in
  domains_override := domains;
  let instrumented = trace_file <> None || stats in
  if instrumented then begin
    Trace.set_enabled true;
    Counters.set_enabled true
  end;
  (match args with
  | "compare" :: rest ->
    let rec split tol acc = function
      | [] -> (tol, List.rev acc)
      | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t -> split t acc rest
        | None ->
          usage ();
          exit 1)
      | [ "--tolerance" ] ->
        usage ();
        exit 1
      | a :: rest -> split tol (a :: acc) rest
    in
    let tolerance, paths = split 1.5 [] rest in
    (match paths with
    | [ baseline; next ] -> exit (run_compare ~tolerance baseline next)
    | _ ->
      usage ();
      exit 1)
  | _ -> ());
  let jobs =
    match args with
    | [] | [ "all" ] ->
      [ run_table2; run_fig4; run_fig5; run_motivating; run_ablate;
        run_archcompare; run_ilppaths; run_scale; run_sensitivity;
        run_binding; run_batch; run_ports; run_speed; run_storage ]
    | [ "table2" ] -> [ run_table2 ]
    | [ "fig4" ] -> [ run_fig4 ]
    | [ "fig5" ] -> [ run_fig5 ]
    | [ "motivating" ] -> [ run_motivating ]
    | [ "ablate" ] -> [ run_ablate ]
    | [ "archcompare" ] -> [ run_archcompare ]
    | [ "ilppaths" ] -> [ run_ilppaths ]
    | [ "scale" ] -> [ run_scale ]
    | [ "sensitivity" ] -> [ run_sensitivity ]
    | [ "binding" ] -> [ run_binding ]
    | [ "batch" ] -> [ run_batch ]
    | [ "ports" ] -> [ run_ports ]
    | [ "speed" ] -> [ run_speed ]
    | [ "storage" ] -> [ run_storage ]
    | [ "perf" ] -> [ run_perf ]
    | [ "serve" ] -> [ run_serve ]
    | _ ->
      usage ();
      exit 1
  in
  List.iter (fun job -> job ()) jobs;
  if instrumented then begin
    run_ilp_probe ();
    (match trace_file with
    | Some file ->
      Trace_export.write_chrome file;
      Format.printf "trace: wrote %s (%d spans)@." file (Trace.num_events ())
    | None -> ());
    if stats then Trace_export.summary Format.std_formatter
  end
