(* Splitting traced time over the program's layers.

   The program's [Pdw_obs.Trace] spans carry their call path.  A span's
   self time is its duration minus the part its child spans cover; each
   self time is then charged to a bucket: the innermost span on its path
   that names a reported layer stage.  So the wash stages below include
   the scheduler and path-search work they call, but not the router
   flushes and LP solves inside them, which have buckets of their own,
   and the buckets add up to the traced time without overlap. *)

module Trace = Pdw_obs.Trace

let lp_spans = [ "ilp.solve"; "bb.node"; "simplex.solve"; "lp.presolve" ]

let wash_stages =
  [ "plan.necessity"; "plan.grouping"; "plan.paths"; "plan.reschedule" ]

let bucket path =
  let under n = List.mem n path in
  let in_synthesis = under "synthesis.synthesize" && not (under "pdw.optimize") in
  let rec innermost = function
    | [] -> None
    | n :: outer ->
      if List.mem n lp_spans then Some "lp"
      else if String.equal n "router.flush" && under "pdw.optimize" then
        Some "wash.flush"
      else if String.equal n "router.flush" && in_synthesis then
        Some "synth.route"
      else if String.equal n "binding.optimize" && in_synthesis then
        Some "synth.binding"
      else if String.equal n "scheduler.run" && in_synthesis then
        Some "synth.schedule"
      else if List.mem n wash_stages then
        Some ("wash." ^ String.sub n 5 (String.length n - 5))
      else innermost outer
  in
  innermost (List.rev path)

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | a :: p', b :: q' -> String.equal a b && is_prefix p' q'
  | _ :: _, [] -> false

(* Self time of every event, in seconds.  Spans on one domain nest, so
   one pass over each domain's spans in start order, keeping the open
   ancestors on a stack, finds each span's parent. *)
let self_times (events : Trace.event list) =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_tid e.tid
        (e :: Option.value (Hashtbl.find_opt by_tid e.tid) ~default:[]))
    events;
  Hashtbl.fold
    (fun _ evs acc ->
      let a = Array.of_list evs in
      Array.stable_sort
        (fun (x : Trace.event) (y : Trace.event) ->
          let c = Float.compare x.ts y.ts in
          if c <> 0 then c
          else
            Int.compare (List.length x.path) (List.length y.path))
        a;
      let child = Array.make (Array.length a) 0.0 in
      let parent_of (p : Trace.event) (e : Trace.event) =
        List.length p.path = List.length e.path - 1 && is_prefix p.path e.path
      in
      let stack = ref [] in
      Array.iteri
        (fun i (e : Trace.event) ->
          let rec pop () =
            match !stack with
            | j :: rest when not (parent_of a.(j) e) ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | j :: _ -> child.(j) <- child.(j) +. e.dur
          | [] -> ());
          stack := i :: !stack)
        a;
      let acc = ref acc in
      Array.iteri
        (fun i e -> acc := (e, Float.max 0.0 (e.Trace.dur -. child.(i))) :: !acc)
        a;
      !acc)
    by_tid []

(* Total self milliseconds per bucket. *)
let bucket_ms events =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun ((e : Trace.event), self) ->
      match bucket e.path with
      | Some b ->
        Hashtbl.replace totals b
          ((self *. 1000.0) +. Option.value (Hashtbl.find_opt totals b) ~default:0.0)
      | None -> ())
    (self_times events);
  fun b -> Hashtbl.find_opt totals b

(* --- the daemon's Prometheus scrape --------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Sum of the samples of family [name] whose labels contain [label]. *)
let scrape_sum text ?(label = "") name =
  let n = String.length name in
  List.fold_left
    (fun acc line ->
      match String.rindex_opt line ' ' with
      | Some sp
        when String.starts_with ~prefix:name line
             && (line.[n] = '{' || line.[n] = ' ')
             && contains (String.sub line 0 sp) label ->
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        acc +. Option.value (float_of_string_opt value) ~default:0.0
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

(* --- planner layer metrics ------------------------------------------- *)

module Counters = Pdw_obs.Counters

(* The planner's per-layer metrics over [plans] traced plans, of which
   [motivating] ran the exact LP wash paths.  [spans] holds the
   benchmark's own ["synthesize"], ["optimize"] and ["export"] spans
   around the layer calls; [since] is the counter snapshot taken when
   tracing started.  A metric whose span or counter this build does not
   record reads NaN, and its note names what is missing. *)
let planner ~spans ~since ~plans ~motivating =
  let bucket = bucket_ms (Trace.events ()) in
  let registered = List.map (fun (n, _, _) -> n) (Counters.all ()) in
  let moved = Counters.delta ~since in
  let missing = ref [] in
  let counter name =
    if List.mem name registered then
      match List.find_opt (fun (n, _, _) -> String.equal n name) moved with
      | Some (_, _, v) -> float_of_int v
      | None -> 0.0
    else begin
      missing := ("counter " ^ name) :: !missing;
      nan
    end
  in
  let per n v = if n = 0 then nan else v /. float_of_int n in
  let bucket_per n b =
    match bucket b with
    | Some ms -> per n ms
    | None ->
      missing := ("span bucket " ^ b) :: !missing;
      nan
  in
  let span_per name = per plans (fst (Spans.total spans name)) in
  let covering = counter "synth.router.covering_searches" in
  let pruned = counter "synth.router.pairs_lb_pruned" in
  let flushes = counter "synth.router.flush_calls" in
  let memo_hits = counter "synth.router.flush_memo_hits" in
  let occ_hits = counter "core.occupancy.hits" in
  let occ_misses = counter "core.occupancy.misses" in
  let ratio name ~what num den =
    let r = Stats.ratio ~what num den in
    Report.metric ~note:(Stats.pp_ratio r) name "ratio" (Stats.ratio_value r)
  in
  let metrics =
    [
      Report.metric "pdw_synth.synthesize_ms" "ms" (span_per "synthesize");
      Report.metric "pdw_synth.binding_ms" "ms" (bucket_per plans "synth.binding");
      Report.metric "pdw_synth.route_ms" "ms" (bucket_per plans "synth.route");
      Report.metric "pdw_synth.schedule_ms" "ms"
        (bucket_per plans "synth.schedule");
      Report.metric "pdw_synth.covering_searches" "count" (per plans covering);
      ratio "pdw_synth.pairs_pruned_ratio"
        ~what:"port pairs cut by the lower bound / pairs considered" pruned
        (pruned +. covering);
      ratio "pdw_synth.flush_memo_hit_ratio"
        ~what:"flush memo hits / flush calls" memo_hits flushes;
      Report.metric "pdw_wash.optimize_ms" "ms" (span_per "optimize");
      Report.metric "pdw_wash.necessity_ms" "ms"
        (bucket_per plans "wash.necessity");
      Report.metric "pdw_wash.grouping_ms" "ms" (bucket_per plans "wash.grouping");
      Report.metric "pdw_wash.paths_ms" "ms" (bucket_per plans "wash.paths");
      Report.metric "pdw_wash.reschedule_ms" "ms"
        (bucket_per plans "wash.reschedule");
      Report.metric "pdw_wash.flush_ms" "ms" (bucket_per plans "wash.flush");
      Report.metric "pdw_wash.rounds" "count"
        (per plans (counter "core.plan.rounds"));
      ratio "pdw_wash.occupancy_hit_ratio" ~what:"occupancy hits / lookups"
        occ_hits (occ_hits +. occ_misses);
      Report.metric "pdw_wash.export_ms" "ms" (span_per "export");
      Report.metric ~note:(Printf.sprintf "per motivating plan, %d plans" motivating)
        "pdw_lp.solve_ms" "ms" (bucket_per motivating "lp");
      Report.metric "pdw_lp.pivots" "count"
        (per motivating (counter "lp.simplex.pivots"));
      Report.metric "pdw_lp.bb_nodes" "count"
        (per motivating (counter "lp.bb.nodes_expanded"));
    ]
  in
  let missing = "MISSING from this build: " ^ String.concat ", " (List.rev !missing) in
  List.map
    (fun (m : Report.metric) ->
      if Float.is_nan m.value then { m with note = missing } else m)
    metrics
