(* The repository benchmark: runs one named workload against the
   program as built from this checkout, checks every output, and prints
   its metrics, the last line of stdout being one JSON object.

     main.exe --workload plan-suite|submit-cold|submit-hit
              --seed N --seconds S --trace 0|1 [--pdw PATH]

   [--trace 0] measures with every probe off and prints the end-to-end
   metrics.  [--trace 1] runs the same workload and seed twice, first
   untraced and then traced, prints the per-layer metrics, and shows
   both runs' end-to-end metrics side by side so the tracing overhead
   is visible.  perfbench/run.py builds the program and calls this. *)

open Perfbench

let usage =
  "main.exe --workload plan-suite|submit-cold|submit-hit --seed N --seconds \
   S --trace 0|1 [--pdw PATH]"

let workloads = [ "plan-suite"; "submit-cold"; "submit-hit" ]

let run ~workload ~pdw ~seed ~seconds ~traced =
  match workload with
  | "plan-suite" -> Plan_suite.run ~seconds ~traced
  | "submit-cold" -> Submit.cold ~pdw ~seed ~seconds ~traced
  | _ -> Submit.hit ~pdw ~seed ~seconds ~traced

(* [metrics] in the order of [names], each present: one the phase did
   not produce is printed as missing. *)
let ordered names (metrics : Report.metric list) =
  List.map
    (fun (name, unit) ->
      match Report.find name metrics with
      | Some m -> m
      | None -> Report.metric ~note:"MISSING" name unit nan)
    names

let print_findings (p : Report.phase) =
  List.iter print_endline p.lines;
  Printf.printf "%s\n" (Stats.Tally.summary p.tally)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and pdw = ref "_build/default/bin/main.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed of the random inputs");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced run");
      ("--pdw", Arg.Set_string pdw, "PATH the pdw binary that serves the daemon workloads");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline ("usage: " ^ usage);
    exit 2
  end;
  if !workload <> "plan-suite" && not (Sys.file_exists !pdw) then begin
    prerr_endline ("perfbench: no pdw binary at " ^ !pdw);
    exit 2
  end;
  Daemon.install_cleanup ();
  let workload = !workload and seed = !seed and pdw = !pdw in
  let seconds = float_of_int !seconds in
  Printf.printf "perfbench %s, seed %d, %g s per measured phase\n%!" workload
    seed seconds;
  let untraced = run ~workload ~pdw ~seed ~seconds ~traced:false in
  let e2e = ordered Report.e2e_names untraced.e2e in
  print_findings untraced;
  if !trace = 0 then begin
    Report.print_metrics "end-to-end metrics" e2e;
    print_endline
      (Report.json_line ~correct:(untraced.unexpected = [])
         ~attempted:untraced.tally.attempted ~failed:untraced.tally.failed e2e)
  end
  else begin
    let traced = run ~workload ~pdw ~seed ~seconds ~traced:true in
    print_findings traced;
    Printf.printf "end-to-end metrics, untraced beside traced\n";
    List.iter
      (fun (u : Report.metric) ->
        let t =
          match Report.find u.name traced.e2e with Some t -> t.value | None -> nan
        in
        Printf.printf "  %-20s %14s %14s %-8s tracing changes it by %+.1f%%\n" u.name
          (Report.show u.value) (Report.show t) u.unit
          (100.0 *. (t -. u.value) /. u.value))
      e2e;
    let layers =
      ordered Report.layer_names
        (Report.metric ~note:"minor words per operation, untraced phase"
           "gc.minor_mwords_per_plan" "Mword" untraced.gc_mwords
        :: traced.layers)
    in
    Report.print_metrics "per-layer metrics (traced phase)" layers;
    Daemon.mkdir_p Daemon.state_dir;
    let path =
      Filename.concat Daemon.state_dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed)
    in
    Spans.write traced.spans path;
    Printf.printf "benchmark spans written to %s\n" path;
    print_endline
      (Report.json_line
         ~correct:(untraced.unexpected = [] && traced.unexpected = [])
         ~attempted:(untraced.tally.attempted + traced.tally.attempted)
         ~failed:(untraced.tally.failed + traced.tally.failed)
         layers)
  end
