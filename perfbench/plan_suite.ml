(* plan-suite: one in-process caller plans the paper's inputs, pass
   after pass, through [Pdw_service.Engine.plan].  The inputs are
   fixed; the seed does not change them. *)

module Engine = Pdw_service.Engine
module Clock = Pdw_obs.Clock
module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters
module Wash_plan = Pdw_wash.Wash_plan
module Metrics = Pdw_wash.Metrics

let engine_plan spec =
  match Engine.plan spec with r -> r | exception e -> Error (Printexc.to_string e)

(* Table II's three columns summed over [outcomes]. *)
let quality (outcomes : Wash_plan.outcome list) =
  List.fold_left
    (fun (n, l, t) (o : Wash_plan.outcome) ->
      ( n +. float_of_int o.metrics.Metrics.n_wash,
        l +. o.metrics.l_wash_mm,
        t +. float_of_int o.metrics.t_assay ))
    (0.0, 0.0, 0.0) outcomes

let quality_metrics ~what (n, l, t) =
  [
    Report.metric ~note:what "n_wash" "count" n;
    Report.metric ~note:what "l_wash_mm" "mm" l;
    Report.metric ~note:what "t_assay_s" "assay_s" t;
  ]

(* The traced pipeline: a span for the operation and one per layer
   call under it. *)
let traced_plan spans ~rid spec =
  Spans.record spans ~rid "plan" (fun op ->
      let timer =
        {
          Pipeline.time =
            (fun name f ->
              Spans.record spans ~rid ~parent:op.Spans.id name (fun _ -> f ()));
        }
      in
      Pipeline.plan ~timer spec)

let start_tracing () =
  Trace.reset ();
  Trace.set_enabled true;
  Counters.set_enabled true;
  Counters.snapshot ()

let stop_tracing () =
  Trace.set_enabled false;
  Counters.set_enabled false

let absent_service_metrics note =
  List.filter_map
    (fun (name, unit) ->
      if String.length name > 12 && String.sub name 0 12 = "pdw_service."
      then Some (Report.metric ~note name unit 0.0)
      else None)
    Report.layer_names

type check = Pass | Fault of string * string | Unexpected of string

let run ~seconds ~traced =
  let inputs = Array.of_list (Inputs.named ()) in
  let n = Array.length inputs in
  (* Set-up, three times: one untimed pass over the inputs, which pays
     the planner's lazy initialisation the first time round. *)
  let setups =
    List.init 3 (fun _ ->
        let t0 = Clock.now () in
        Array.iter (fun (i : Inputs.input) -> ignore (engine_plan i.spec)) inputs;
        Clock.now () -. t0)
  in
  let spans = Spans.create () in
  let since = if traced then Some (start_tracing ()) else None in
  let first = Array.make n None in
  let differs = Array.make n 0 in
  let errors = Array.make n None in
  let rid = ref 0 in
  let motivating = ref 0 in
  (* One measured phase: whole passes for [seconds].  Outputs of every
     attempt are compared; counts and times are the attempt's own. *)
  let attempt () =
    let counts = Array.make n 0 in
    let passes = ref [] in
    (* Start from a collected heap, so garbage left by set-up is not
       collected on the measured phase's time. *)
    Gc.full_major ();
    let gc0 = Gc.minor_words () in
    let t0 = Clock.now () in
    while !passes = [] || Clock.now () -. t0 < seconds do
      let p0 = Clock.now () in
      Array.iteri
        (fun k (input : Inputs.input) ->
          let result =
            if traced then Result.map snd (traced_plan spans ~rid:!rid input.spec)
            else engine_plan input.spec
          in
          incr rid;
          if String.equal input.label "motivating" then incr motivating;
          counts.(k) <- counts.(k) + 1;
          match (result, first.(k)) with
          | Ok bytes, None -> first.(k) <- Some bytes
          | Ok bytes, Some b ->
            if not (String.equal b bytes) then differs.(k) <- differs.(k) + 1
          | Error m, _ -> if errors.(k) = None then errors.(k) <- Some m)
        inputs;
      passes := ((Clock.now () -. p0) *. 1000.0) :: !passes
    done;
    (counts, !passes, Clock.now () -. t0, Gc.minor_words () -. gc0)
  in
  let (counts, passes, elapsed, minor_words), stolen =
    Host.measure ~retry:(fun () -> not traced) attempt
  in
  let rss = Host.vmhwm_mb (Unix.getpid ()) in
  let plans = Array.fold_left ( + ) 0 counts in
  let layers =
    match since with
    | None -> []
    | Some since ->
      stop_tracing ();
      let planner =
        Layers.planner ~spans ~since ~plans ~motivating:!motivating
      in
      let wall = fst (Spans.total spans "plan") in
      let layer_sum =
        List.fold_left
          (fun acc name -> acc +. fst (Spans.total spans name))
          0.0 [ "synthesize"; "optimize"; "export" ]
      in
      Trace.reset ();
      planner
      @ absent_service_metrics "no daemon on this workload"
      @ [
          Report.metric ~note:"plan wall minus synthesize, optimize and export"
            "unattributed_ms" "ms"
            ((wall -. layer_sum) /. float_of_int plans);
        ]
  in
  (* Checks, outside the timed phase: each input planned once more
     layer by layer, validated, and held against DAWO. *)
  let checks =
    Array.mapi
      (fun k (input : Inputs.input) ->
        match Pipeline.plan input.spec with
        | Error m -> (Unexpected ("in-process plan raised " ^ m), None)
        | Ok (outcome, bytes) ->
          let problems = ref [] in
          let add p = problems := p :: !problems in
          Option.iter (fun m -> add ("timed plan failed: " ^ m)) errors.(k);
          (match first.(k) with
          | Some b when not (String.equal b bytes) ->
            add "export differs from the timed plans"
          | _ -> ());
          if differs.(k) > 0 then
            add (Printf.sprintf "%d timed plans differ from the first" differs.(k));
          (match Pipeline.validate outcome with Error m -> add m | Ok () -> ());
          let dawo = Pipeline.dawo input.spec in
          let pm = outcome.metrics and dm = dawo.metrics in
          if pm.n_wash > dm.n_wash then
            add
              (Printf.sprintf "more washes than DAWO (%d > %d)" pm.n_wash
                 dm.n_wash);
          let eq26 =
            Printf.sprintf "Eq. (26) %.2f worse than DAWO's %.2f" pm.objective
              dm.objective
          in
          let worse = pm.objective > dm.objective +. 1e-9 in
          let verdict =
            match (!problems, worse) with
            | [], false -> Pass
            | [], true when String.equal input.label "StorageLadder" ->
              Fault (Report.fault_ladder, eq26)
            | ps, worse ->
              Unexpected
                (String.concat "; " (List.rev ps @ if worse then [ eq26 ] else []))
          in
          (verdict, Some outcome))
      inputs
  in
  let tally = Stats.Tally.create () in
  let unexpected = ref [] and lines = ref [] in
  Array.iteri
    (fun k (verdict, _) ->
      let label = inputs.(k).label in
      for _ = 1 to counts.(k) do
        Stats.Tally.attempt tally
      done;
      match verdict with
      | Pass -> ()
      | Fault (fault, detail) ->
        for _ = 1 to counts.(k) do
          Stats.Tally.fail tally fault
        done;
        lines :=
          Printf.sprintf "FAILED %s x %d: %s [%s]" label counts.(k) fault detail
          :: !lines
      | Unexpected detail ->
        for _ = 1 to counts.(k) do
          Stats.Tally.fail tally ("unexpected: " ^ label)
        done;
        unexpected := (label ^ ": " ^ detail) :: !unexpected;
        lines :=
          Printf.sprintf "FAILED %s x %d: unexpected [%s]" label counts.(k) detail
          :: !lines)
    checks;
  let outcomes = List.filter_map snd (Array.to_list checks) in
  let pass_ms = Stats.sorted passes in
  let tail_label, tail = Stats.tail pass_ms in
  let e2e =
    [
      Report.metric ~note:"median of 3 set-ups" "setup_s" "s"
        (Stats.median (Stats.sorted setups));
      (let good = Stats.Tally.succeeded tally in
       let per_pass = good / Array.length pass_ms in
       Report.metric
         ~note:
           (Printf.sprintf "median over %d passes; %d good plans in %.3f s"
              (Array.length pass_ms) good elapsed)
         "throughput_rps" "1/s"
         (Stats.median_rate
            (List.map (fun ms -> (per_pass, ms /. 1000.0)) passes)));
      Report.metric
        ~note:(Printf.sprintf "latency of one pass over the %d inputs; %d passes" n
                 (Array.length pass_ms))
        "p50_ms" "ms" (Stats.median pass_ms);
      Report.metric
        ~note:(Printf.sprintf "%s of %d passes" tail_label (Array.length pass_ms))
        "tail_ms" "ms" tail;
      Report.metric ~note:"VmHWM of the benchmark process" "peak_rss_mb" "MiB" rss;
    ]
    @ quality_metrics ~what:"summed over one pass" (quality outcomes)
  in
  {
    Report.tally;
    unexpected = List.rev !unexpected;
    e2e;
    layers;
    gc_mwords = minor_words /. float_of_int plans /. 1e6;
    spans;
    lines = Host.line stolen :: List.rev !lines;
  }
