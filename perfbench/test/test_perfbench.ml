(* Tests of the benchmark's own logic: the tail rule, ratios, failure
   tallies, input determinism, and the layer split of traced spans. *)

open Perfbench

let tail_rule () =
  let p n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "39 samples: median alone" None (p 39);
  Alcotest.(check (option (float 0.))) "40 samples: p75" (Some 75.0) (p 40);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.0) (p 100);
  Alcotest.(check (option (float 0.))) "199 samples: p90" (Some 90.0) (p 199);
  Alcotest.(check (option (float 0.))) "999 samples: p90" (Some 90.0) (p 999);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.0) (p 1000);
  Alcotest.(check (option (float 0.))) "10000 samples: p99.9" (Some 99.9) (p 10000);
  let a = Stats.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  let label, v = Stats.tail a in
  Alcotest.(check string) "label" "p90" label;
  Alcotest.(check (float 0.)) "ten samples beyond it" 90.0 v;
  Alcotest.(check int) "exactly ten beyond"
    10 (Array.length (Array.of_list (List.filter (fun x -> x > v) (Array.to_list a))));
  let small = Stats.sorted [ 5.; 1.; 3.; 2. ] in
  Alcotest.(check (pair string (float 0.))) "under forty: the median"
    ("p50", 2.5) (Stats.tail small)

let ratios () =
  let r = Stats.ratio ~what:"hits / lookups" 3.0 12.0 in
  Alcotest.(check (float 1e-12)) "value" 0.25 (Stats.ratio_value r);
  Alcotest.(check string) "printed with its base"
    "0.2500 (3 / 12 hits / lookups)" (Stats.pp_ratio r);
  Alcotest.(check (float 0.)) "empty base reads 0" 0.0
    (Stats.ratio_value (Stats.ratio ~what:"x" 0.0 0.0))

let tallies () =
  let t = Stats.Tally.create () in
  for _ = 1 to 10 do Stats.Tally.attempt t done;
  Stats.Tally.fail t "fault a";
  Stats.Tally.fail t "fault b";
  Stats.Tally.fail t "fault a";
  Alcotest.(check int) "attempted" 10 t.attempted;
  Alcotest.(check int) "failed" 3 t.failed;
  Alcotest.(check int) "succeeded" 7 (Stats.Tally.succeeded t);
  Alcotest.(check (list (pair string int))) "by fault, first seen first"
    [ ("fault a", 2); ("fault b", 1) ] t.by_fault;
  Alcotest.(check string) "summary"
    "attempted 10, failed 3; 2 x fault a; 1 x fault b" (Stats.Tally.summary t)

let has_park text =
  List.exists
    (fun line ->
      match String.split_on_char ' ' line with
      | "op" :: _ :: _ :: _ :: "park" :: _ -> true
      | _ -> false)
    (String.split_on_char '\n' text)

let labels inputs = List.map (fun (i : Inputs.input) -> i.label) inputs

let texts inputs =
  List.map
    (fun (i : Inputs.input) ->
      match i.spec.Pdw_service.Protocol.source with
      | Pdw_service.Protocol.Inline t -> t
      | Pdw_service.Protocol.Benchmark n -> n)
    inputs

let deterministic_inputs () =
  let a = Array.to_list (Inputs.cold_rounds ~seed:7 ~rounds:3) in
  let b = Array.to_list (Inputs.cold_rounds ~seed:7 ~rounds:3) in
  let c = Array.to_list (Inputs.cold_rounds ~seed:8 ~rounds:3) in
  Alcotest.(check int) "whole rounds" (3 * Inputs.round_size) (List.length a);
  Alcotest.(check (list string)) "same seed, same inputs" (texts a) (texts b);
  Alcotest.(check bool) "another seed, other inputs" true (texts a <> texts c);
  let fixed = List.map (fun i -> Printf.sprintf "f1-%d" i) (Array.to_list Vetted.deadlocking) in
  List.iteri
    (fun k (i : Inputs.input) ->
      let pos = k mod Inputs.round_size in
      if pos = 19 || pos = 39 then
        Alcotest.(check bool) "deadlocking member at a fixed position" true
          (List.mem i.label fixed))
    c;
  let random =
    List.filter (fun l -> not (List.mem l fixed)) (labels a @ labels c)
  in
  Alcotest.(check int) "no random member repeats within a run"
    (List.length (labels a) - 6)
    (List.length (List.sort_uniq compare (List.filter (fun l -> not (List.mem l fixed)) (labels a))));
  List.iter
    (fun l ->
      Scanf.sscanf l "f%d-%d" (fun fam idx ->
          let blocked = if fam = 1 then Vetted.failing_parked else Vetted.failing_storage_free in
          Alcotest.(check bool) (l ^ " is not a known failure") false (Array.mem idx blocked)))
    random;
  let h = Inputs.hit_set ~seed:3 in
  Alcotest.(check int) "hit set size" 192 (List.length h);
  Alcotest.(check int) "hit set distinct" 192 (List.length (List.sort_uniq compare (labels h)));
  Alcotest.(check (list string)) "hit set deterministic" (texts h) (texts (Inputs.hit_set ~seed:3));
  Alcotest.(check string) "generator is fixed"
    (Gen.member Gen.Parked 71) (Gen.member Gen.Parked 71);
  Alcotest.(check bool) "parked family parks" true (has_park (Gen.member Gen.Parked 71));
  Alcotest.(check bool) "storage-free family does not" false
    (List.exists has_park (List.init 50 (Gen.member Gen.Storage_free)))

let ev name path ts dur =
  {
    Pdw_obs.Trace.name;
    cat = "";
    ts;
    dur;
    tid = 0;
    path;
    args = [];
    minor_words = 0.;
    major_words = 0.;
  }

let layer_split () =
  let synth = [ "synthesis.synthesize" ] in
  let wash = [ "pdw.optimize" ] in
  let events =
    [
      ev "synthesis.synthesize" synth 0.0 10.0;
      ev "router.flush" (synth @ [ "router.flush" ]) 1.0 4.0;
      ev "scheduler.run" (synth @ [ "scheduler.run" ]) 6.0 2.0;
      ev "pdw.optimize" wash 20.0 10.0;
      ev "plan.reschedule" (wash @ [ "plan.reschedule" ]) 21.0 5.0;
      ev "scheduler.run" (wash @ [ "plan.reschedule"; "scheduler.run" ]) 22.0 3.0;
      ev "router.flush" (wash @ [ "plan.reschedule"; "router.flush" ]) 25.0 1.0;
    ]
  in
  let ms = Layers.bucket_ms events in
  let get b = Option.value (ms b) ~default:(-1.0) in
  Alcotest.(check (float 1e-9)) "route" 4000.0 (get "synth.route");
  Alcotest.(check (float 1e-9)) "schedule" 2000.0 (get "synth.schedule");
  Alcotest.(check (float 1e-9)) "reschedule keeps its scheduler run" 4000.0
    (get "wash.reschedule");
  Alcotest.(check (float 1e-9)) "flush under wash" 1000.0 (get "wash.flush");
  Alcotest.(check bool) "no LP here" true (ms "lp" = None)

let scrape () =
  let text =
    "# HELP x\n\
     pdw_internal_total{name=\"service.retries\"} 3\n\
     pdw_internal_total{name=\"service.requests\"} 40\n\
     pdw_worker_minor_words_total{worker=\"0\"} 1.5e6\n\
     pdw_worker_minor_words_total{worker=\"1\"} 5e5\n"
  in
  Alcotest.(check (float 0.)) "labelled sample" 3.0
    (Layers.scrape_sum text ~label:"name=\"service.retries\"" "pdw_internal_total");
  Alcotest.(check (float 0.)) "summed family" 2e6
    (Layers.scrape_sum text "pdw_worker_minor_words_total")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick tail_rule;
          Alcotest.test_case "ratios keep their base" `Quick ratios;
          Alcotest.test_case "failure tallies" `Quick tallies;
        ] );
      ( "inputs",
        [ Alcotest.test_case "deterministic for a seed" `Quick deterministic_inputs ] );
      ( "layers",
        [
          Alcotest.test_case "self time split" `Quick layer_split;
          Alcotest.test_case "scrape parsing" `Quick scrape;
        ] );
    ]
