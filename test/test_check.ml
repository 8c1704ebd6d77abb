(* Tests for the unified verification module: all benchmarks and both
   planners must pass every check; deliberately corrupted schedules must
   be caught by the right checker. *)

module Coord = Pdw_geometry.Coord
module Gpath = Pdw_geometry.Gpath
module Benchmarks = Pdw_assay.Benchmarks
module Task = Pdw_synth.Task
module Schedule = Pdw_synth.Schedule
module Synthesis = Pdw_synth.Synthesis
module Pdw = Pdw_wash.Pdw
module Dawo = Pdw_wash.Dawo
module Wash_plan = Pdw_wash.Wash_plan
module Validate = Pdw_check.Validate

let test_all_benchmarks_verify () =
  (* Per-benchmark fan-out over a domain pool: each worker synthesizes,
     optimizes and validates independently; checks run on the caller. *)
  let results =
    Pdw_pool.Domain_pool.with_pool (fun pool ->
        Pdw_pool.Domain_pool.map pool
          (fun (name, b) ->
            let s = Synthesis.synthesize b in
            let pdw = Validate.outcome (Pdw.optimize s) in
            let dawo = Validate.outcome (Dawo.optimize s) in
            (name, Validate.ok pdw, Validate.ok dawo))
          (Benchmarks.all () @ Benchmarks.extra ()))
  in
  List.iter
    (fun (name, pdw_ok, dawo_ok) ->
      Alcotest.(check bool) (name ^ " pdw verifies") true pdw_ok;
      Alcotest.(check bool) (name ^ " dawo verifies") true dawo_ok)
    results

let test_baseline_flagged_as_contaminated () =
  (* A wash-free baseline must fail the contamination checks but pass the
     structural ones. *)
  let s = Synthesis.synthesize (Benchmarks.pcr ()) in
  let report = Validate.schedule s.Synthesis.schedule in
  Alcotest.(check bool) "not ok" false (Validate.ok report);
  let checks_hit =
    List.sort_uniq String.compare
      (List.map (fun f -> f.Validate.check) report.Validate.findings)
  in
  Alcotest.(check bool) "contamination flagged" true
    (List.mem "contamination" checks_hit);
  Alcotest.(check bool) "simulator agrees" true
    (List.mem "simulator" checks_hit);
  Alcotest.(check bool) "structure is fine" false
    (List.mem "structural" checks_hit);
  Alcotest.(check bool) "implementations agree" false
    (List.mem "agreement" checks_hit)

let test_corrupted_schedule_caught () =
  (* Shift one transport to overlap whatever runs at t=0: the structural
     and/or simulator checks must fire. *)
  let s = Synthesis.synthesize (Benchmarks.pcr ()) in
  let o = Pdw.optimize s in
  let sched = o.Wash_plan.schedule in
  let corrupted =
    let entries = Schedule.entries sched in
    let shifted = ref false in
    let tweak = function
      | Schedule.Task_run { task; start; finish }
        when (not !shifted) && start > 10 ->
        shifted := true;
        Schedule.Task_run { task; start = 0; finish = finish - start }
      | e -> e
    in
    Schedule.make
      ~graph:(Schedule.graph sched)
      ~layout:(Schedule.layout sched)
      ~binding:(Schedule.binding sched)
      (List.map tweak entries)
  in
  let report = Validate.schedule corrupted in
  Alcotest.(check bool) "corruption detected" false (Validate.ok report)

let test_report_pp () =
  let s = Synthesis.synthesize (Benchmarks.pcr ()) in
  let good = Validate.outcome (Pdw.optimize s) in
  let rendered = Format.asprintf "%a" Validate.pp good in
  Alcotest.(check bool) "mentions pass count" true
    (String.length rendered > 0 && Validate.ok good);
  let bad = Validate.schedule s.Synthesis.schedule in
  let rendered = Format.asprintf "%a" Validate.pp bad in
  Alcotest.(check bool) "lists findings" true
    (String.length rendered > 20 && not (Validate.ok bad))

let () =
  Alcotest.run "pdw_check"
    [
      ( "validate",
        [
          Alcotest.test_case "all benchmarks verify (both planners)" `Slow
            test_all_benchmarks_verify;
          Alcotest.test_case "baseline flagged" `Quick
            test_baseline_flagged_as_contaminated;
          Alcotest.test_case "corruption caught" `Quick
            test_corrupted_schedule_caught;
          Alcotest.test_case "report rendering" `Quick test_report_pp;
        ] );
    ]
