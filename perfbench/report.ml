(* What one phase of a workload produces, and how the run prints it. *)

type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

type phase = {
  tally : Stats.Tally.t;
  unexpected : string list;
      (* failures no known fault explains: the outputs are not correct *)
  e2e : metric list;
  layers : metric list;  (* filled by the traced phase only *)
  gc_mwords : float;
      (* minor-heap Mwords per operation on the domain that does the
         work; taken from the untraced phase, since spans allocate *)
  spans : Spans.t;  (* the benchmark's own spans; empty when untraced *)
  lines : string list;  (* human-readable findings *)
}

(* The two faults kept in the inputs.  Each failed operation is printed
   with one of these, or as unexpected. *)
let fault_ladder =
  "known fault: StorageLadder scores worse than DAWO on Eq. (26); Eq. \
   (21) integration absorbs a removal when the wash path grows by at most \
   `min 4 removal_len` cells, a local rule (lib/core/wash_plan.ml:388)"

let fault_deadlock =
  "known fault: parked assay deadlocks; the reschedule after wash \
   insertion raises `Scheduler.run: precedence cycle (no ready job)` \
   (lib/synth/scheduler.ml:221)"

let deadlock_marker = "Scheduler.run: precedence cycle (no ready job)"

(* End-to-end metrics, in print order: name, unit. *)
let e2e_names =
  [
    ("setup_s", "s"); ("throughput_rps", "1/s"); ("p50_ms", "ms");
    ("tail_ms", "ms"); ("peak_rss_mb", "MiB"); ("n_wash", "count");
    ("l_wash_mm", "mm"); ("t_assay_s", "assay_s");
  ]

(* Per-layer metrics of the traced phase, in print order. *)
let layer_names =
  [
    ("pdw_synth.synthesize_ms", "ms"); ("pdw_synth.binding_ms", "ms");
    ("pdw_synth.route_ms", "ms"); ("pdw_synth.schedule_ms", "ms");
    ("pdw_synth.covering_searches", "count");
    ("pdw_synth.pairs_pruned_ratio", "ratio");
    ("pdw_synth.flush_memo_hit_ratio", "ratio");
    ("pdw_wash.optimize_ms", "ms"); ("pdw_wash.necessity_ms", "ms");
    ("pdw_wash.grouping_ms", "ms"); ("pdw_wash.paths_ms", "ms");
    ("pdw_wash.reschedule_ms", "ms"); ("pdw_wash.flush_ms", "ms");
    ("pdw_wash.rounds", "count"); ("pdw_wash.occupancy_hit_ratio", "ratio");
    ("pdw_wash.export_ms", "ms"); ("pdw_lp.solve_ms", "ms");
    ("pdw_lp.pivots", "count"); ("pdw_lp.bb_nodes", "count");
    ("pdw_service.client_encode_ms", "ms");
    ("pdw_service.client_roundtrip_ms", "ms");
    ("pdw_service.client_decode_ms", "ms"); ("pdw_service.reply_kb", "KiB");
    ("pdw_service.hit_ms", "ms"); ("pdw_service.queue_ms", "ms");
    ("pdw_service.worker_synthesize_ms", "ms");
    ("pdw_service.worker_optimize_ms", "ms"); ("pdw_service.slack_ms", "ms");
    ("pdw_service.attempts_per_job", "attempts/job");
    ("pdw_service.cache_hit_ratio", "ratio");
    ("gc.minor_mwords_per_plan", "Mword"); ("unattributed_ms", "ms");
  ]

let find name metrics = List.find_opt (fun m -> String.equal m.name name) metrics

(* Every value prints with all its digits; JSON has no NaN or infinity,
   so a value that could not be measured prints as 0 and the run says
   so in its text. *)
let number v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  else "0"

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (number m.value) m.unit)
          metrics))

let show v = if Float.is_finite v then Printf.sprintf "%.4f" v else "n/a"

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14s %-12s %s\n" m.name (show m.value) m.unit
        m.note)
    metrics
