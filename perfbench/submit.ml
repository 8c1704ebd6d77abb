(* submit-cold and submit-hit: closed-loop clients of a [pdw serve]
   daemon in its own process, through [Pdw_service.Client]. *)

module Client = Pdw_service.Client
module Protocol = Pdw_service.Protocol
module Wire = Pdw_service.Wire
module Json = Pdw_obs.Json
module Clock = Pdw_obs.Clock
module Trace = Pdw_obs.Trace
module Reqtrace = Pdw_obs.Reqtrace

(* --- connections ---------------------------------------------------- *)

(* Untraced, a request is one [Client.request].  Traced, the same
   public calls [Client.request] makes are made one at a time, each in
   a span: encode, write the frame and read the reply frame, decode. *)
type conn =
  | Plain of Client.t
  | Traced of {
      fd : Unix.file_descr;
      rd : Wire.Buffered.t;
      spans : Spans.t;
      mutable reply_bytes : int;
    }

let connect ?spans socket =
  match spans with
  | None -> Plain (Client.connect socket)
  | Some spans ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Traced { fd; rd = Wire.Buffered.create fd; spans; reply_bytes = 0 }

let close = function
  | Plain c -> Client.close c
  | Traced t -> ( try Unix.close t.fd with Unix.Unix_error _ -> ())

let send conn ~rid req =
  match conn with
  | Plain c -> Client.request c req
  | Traced t -> (
    Spans.record t.spans ~rid "request" @@ fun op ->
    let step name f =
      Spans.record t.spans ~rid ~parent:op.Spans.id name (fun _ -> f ())
    in
    try
      let payload =
        step "client.encode" (fun () ->
            Json.to_string (Protocol.request_to_json req))
      in
      let frame =
        step "client.roundtrip" (fun () ->
            Wire.write_frame t.fd payload;
            Wire.Buffered.read_frame t.rd)
      in
      match frame with
      | None -> Error "server closed the connection"
      | Some s ->
        t.reply_bytes <- t.reply_bytes + String.length s;
        step "client.decode" (fun () ->
            match Json.parse s with
            | Ok j -> Protocol.reply_of_json j
            | Error m -> Error m)
    with
    | Wire.Protocol_error m -> Error m
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let reply_bytes = function Plain _ -> 0 | Traced t -> t.reply_bytes

(* At most two clients, never more than the host's cores. *)
let clients = max 1 (min 2 (Domain.recommended_domain_count ()))

(* --- daemon counters ------------------------------------------------ *)

type snapshot = {
  hits : float;
  misses : float;
  jobs : float;  (* planner jobs finished, good or failed *)
  retries : float;
  worker_minor_words : float;
}

let snapshot (d : Daemon.t) =
  let stats =
    match Daemon.request d Protocol.Stats with
    | Ok (Protocol.Stats_reply j) -> j
    | _ -> Json.Null
  in
  let get path =
    let rec go j = function
      | [] -> Option.value (Json.to_float j) ~default:nan
      | k :: rest -> (
        match Json.member k j with Some j -> go j rest | None -> nan)
    in
    go stats path
  in
  let scrape =
    match Daemon.request d Protocol.Metrics with
    | Ok (Protocol.Metrics_reply text) -> text
    | _ -> ""
  in
  {
    hits = get [ "cache"; "hits" ];
    misses = get [ "cache"; "misses" ];
    jobs = get [ "requests"; "completed" ] +. get [ "requests"; "errors" ];
    retries =
      Layers.scrape_sum scrape ~label:"name=\"service.retries\""
        "pdw_internal_total";
    worker_minor_words = Layers.scrape_sum scrape "pdw_worker_minor_words_total";
  }

(* --- set-up --------------------------------------------------------- *)

(* Start a daemon, wait for [Ping], and submit [prime] once through one
   connection.  Repeated three times; the first two daemons are stopped
   and the last one serves the measured phase. *)
let setup ~pdw ~traced ~prime ~rehit =
  let once () =
    let t0 = Clock.now () in
    let d = Daemon.spawn ~pdw ~traced in
    let served =
      Client.with_client d.Daemon.socket (fun c ->
          let served =
            List.map
              (fun (i : Inputs.input) -> (i, Client.request c i.request))
              prime
          in
          if rehit then
            List.iter (fun (i : Inputs.input) -> ignore (Client.request c i.request)) prime;
          served)
    in
    (Clock.now () -. t0, d, served)
  in
  let rec go k acc =
    let s, d, served = once () in
    if k = 1 then (List.rev (s :: acc), d, served)
    else begin
      Daemon.stop d;
      Daemon.discard d;
      go (k - 1) (s :: acc)
    end
  in
  let samples, d, served = go 3 [] in
  (Stats.median (Stats.sorted samples), d, served)

let slow_records (d : Daemon.t) ~after_id =
  match d.slow_log with
  | None -> []
  | Some path -> (
    match In_channel.with_open_text path In_channel.input_lines with
    | exception Sys_error _ -> []
    | lines ->
      List.filter_map
        (fun l ->
          match Reqtrace.of_line l with
          | Ok r when r.Reqtrace.id > after_id -> Some r
          | _ -> None)
        lines)

(* --- checks --------------------------------------------------------- *)

(* [f] over [items] on up to two domains. *)
let parallel_map f items =
  let n = Array.length items in
  let results = Array.make n None in
  let domains = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let work d =
    for i = 0 to n - 1 do
      if i mod domains = d then results.(i) <- Some (f items.(i))
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (fun () -> work (d + 1))) in
  work 0;
  List.iter Domain.join spawned;
  Array.map Option.get results

type expectation = Served of string | Failed of string

type verdict =
  | Good of Pdw_wash.Wash_plan.outcome
  | Known of string * string  (* fault, detail *)
  | Bad of string

(* Plan [input] in process and hold the daemon's answer against it: a
   served plan must match byte for byte and validate; a failure must
   fail in process too, and the in-process failure names the fault. *)
let check ~timer (input, expect) =
  match (Pipeline.plan ~timer input.Inputs.spec, expect) with
  | Ok (outcome, bytes), Served served ->
    if not (String.equal bytes served) then
      Bad "served plan differs from the in-process plan"
    else (
      match Pipeline.validate outcome with
      | Ok () -> Good outcome
      | Error m -> Bad m)
  | Ok _, Failed m -> Bad ("daemon failed but the in-process plan succeeded: " ^ m)
  | Error m, Failed _ ->
    if Layers.contains m Report.deadlock_marker then
      Known (Report.fault_deadlock, String.sub m 0 (min 120 (String.length m)) ^ "...")
    else Bad ("in-process plan failed: " ^ m)
  | Error m, Served _ -> Bad ("in-process plan failed on a served spec: " ^ m)

let run_checks ~spans ~traced items =
  let since = if traced then Some (Plan_suite.start_tracing ()) else None in
  let rid = Atomic.make 1_000_000 in
  let verdicts =
    parallel_map
      (fun item ->
        let rid = Atomic.fetch_and_add rid 1 in
        let timer =
          if traced then
            { Pipeline.time = (fun name f -> Spans.record spans ~rid name (fun _ -> f ())) }
          else Pipeline.untimed
        in
        check ~timer item)
      items
  in
  let layers =
    match since with
    | None -> []
    | Some since ->
      Plan_suite.stop_tracing ();
      let motivating =
        Array.fold_left
          (fun n ((i : Inputs.input), _) ->
            if String.equal i.label "motivating" then n + 1 else n)
          0 items
      in
      let planner =
        Layers.planner ~spans ~since ~plans:(Array.length items) ~motivating
      in
      Trace.reset ();
      List.map
        (fun (m : Report.metric) ->
          {
            m with
            note =
              String.trim
                (m.note ^ " (in-process re-plan of the workload's specs)");
          })
        planner
  in
  (verdicts, layers)

(* --- per-layer service metrics -------------------------------------- *)

let stage r name =
  Option.value (List.assoc_opt name r.Reqtrace.stages) ~default:0.0

let service_layers ~spans ~conns ~sent ~records ~before ~after =
  let n = float_of_int (max 1 sent) in
  let per_req name = fst (Spans.total spans name) /. n in
  let planned = List.filter (fun r -> r.Reqtrace.outcome = Reqtrace.Planned) records in
  let hits = List.filter (fun r -> r.Reqtrace.outcome = Reqtrace.Hit) records in
  let mean_stage rs f = if rs = [] then 0.0 else Stats.mean (List.map f rs) in
  let jobs = after.jobs -. before.jobs in
  let retries = after.retries -. before.retries in
  let dhits = after.hits -. before.hits and dmiss = after.misses -. before.misses in
  let lookup = Stats.ratio ~what:"cache hits / lookups" dhits (dhits +. dmiss) in
  let attempts = Stats.ratio ~what:"planner attempts / jobs" (jobs +. retries) jobs in
  let daemon_total = mean_stage records (fun r -> r.Reqtrace.total_ms) in
  let note_planned = Printf.sprintf "mean over %d planned requests" (List.length planned) in
  [
    Report.metric "pdw_service.client_encode_ms" "ms" (per_req "client.encode");
    Report.metric "pdw_service.client_roundtrip_ms" "ms" (per_req "client.roundtrip");
    Report.metric "pdw_service.client_decode_ms" "ms" (per_req "client.decode");
    Report.metric "pdw_service.reply_kb" "KiB"
      (float_of_int (List.fold_left (fun a c -> a + reply_bytes c) 0 conns)
       /. n /. 1024.0);
    Report.metric
      ~note:(Printf.sprintf "mean over %d hits" (List.length hits))
      "pdw_service.hit_ms" "ms"
      (mean_stage hits (fun r -> stage r "cache"));
    Report.metric ~note:note_planned "pdw_service.queue_ms" "ms"
      (mean_stage planned (fun r -> stage r "queue"));
    Report.metric ~note:note_planned "pdw_service.worker_synthesize_ms" "ms"
      (mean_stage planned (fun r -> stage r "synthesize"));
    Report.metric ~note:note_planned "pdw_service.worker_optimize_ms" "ms"
      (mean_stage planned (fun r -> stage r "optimize"));
    Report.metric ~note:note_planned "pdw_service.slack_ms" "ms"
      (mean_stage planned (fun r ->
           stage r "wait" -. stage r "queue" -. stage r "synthesize"
           -. stage r "optimize"));
    Report.metric ~note:(Stats.pp_ratio attempts) "pdw_service.attempts_per_job"
      "attempts/job"
      (if jobs > 0.0 then Stats.ratio_value attempts else 1.0);
    Report.metric ~note:(Stats.pp_ratio lookup) "pdw_service.cache_hit_ratio"
      "ratio" (Stats.ratio_value lookup);
    Report.metric
      ~note:"client wall minus encode, decode and the daemon's own time"
      "unattributed_ms" "ms"
      (per_req "request" -. per_req "client.encode" -. per_req "client.decode"
     -. daemon_total);
  ]

(* --- the two workloads ---------------------------------------------- *)

type answer = {
  input : Inputs.input;
  reply : (Protocol.reply, string) result;
  ms : float;
  done_at : float;  (* seconds into the measured phase *)
}

let served_outcome = function
  | Ok (Protocol.Plan { outcome; _ }) -> Some outcome
  | _ -> None

(* The three quality sums over the named inputs, from their checked
   in-process plans (which equal the served ones byte for byte). *)
let named_quality named verdicts =
  Plan_suite.quality_metrics ~what:"summed over the twelve named specs served at set-up"
    (Plan_suite.quality
       (List.filter_map
          (fun k -> match verdicts.(k) with Good o -> Some o | _ -> None)
          (List.init (List.length named) Fun.id)))

(* [tail_of] replaces the request latencies as the tail's sample, with
   a word for what its samples are. *)
let latency_metrics ?tail_of ~windows ~good ~elapsed lat =
  let a = Stats.sorted lat in
  let n = Array.length a in
  let what, t = Option.value tail_of ~default:("samples", a) in
  let tail_label, tail = if Array.length t = 0 then ("p50", nan) else Stats.tail t in
  [
    Report.metric
      ~note:
        (Printf.sprintf "median over %d windows; %d answered in %.3f s"
           (List.length windows) good elapsed)
      "throughput_rps" "1/s" (Stats.median_rate windows);
    Report.metric ~note:(Printf.sprintf "%d samples" n) "p50_ms" "ms"
      (if n = 0 then nan else Stats.median a);
    Report.metric
      ~note:(Printf.sprintf "%s of %d %s" tail_label (Array.length t) what)
      "tail_ms" "ms" tail;
  ]

let warmup_verdicts ~unexpected verdicts named =
  List.iteri
    (fun k (i : Inputs.input) ->
      match verdicts.(k) with
      | Good _ -> ()
      | Known (f, _) -> unexpected := (i.label ^ " at set-up: " ^ f) :: !unexpected
      | Bad m -> unexpected := (i.label ^ " at set-up: " ^ m) :: !unexpected)
    named

let expect_served (i, reply) =
  match served_outcome reply with
  | Some o -> (i, Served o)
  | None -> (i, Failed "no plan served at set-up")

let cold ~pdw ~seed ~seconds ~traced =
  let named = Inputs.named () in
  (* Enough rounds for two attempts at 1000 cold plans a second, or the
     whole population, whichever is smaller. *)
  let reqs =
    Inputs.cold_rounds ~seed
      ~rounds:(max 4 (int_of_float (Float.ceil (seconds *. 2000.0 /. 40.0))))
  in
  let total = Array.length reqs in
  let setup_s, d, served = setup ~pdw ~traced ~prime:named ~rehit:false in
  let spans = Spans.create () in
  let conns =
    List.init clients (fun _ ->
        connect ?spans:(if traced then Some spans else None) d.Daemon.socket)
  in
  let answers = Array.make total None in
  let cursor = ref 0 and closed = ref false and lock = Mutex.create () in
  let t0 = ref 0.0 in
  (* Hand out requests in whole rounds: once the time is up, the next
     round is not started, but the current one is finished. *)
  let next () =
    Mutex.lock lock;
    let r =
      if !closed then None
      else if
        !cursor mod Inputs.round_size = 0
        && (!cursor >= total || Clock.now () -. !t0 >= seconds)
      then begin
        closed := true;
        None
      end
      else begin
        let i = !cursor in
        incr cursor;
        Some i
      end
    in
    Mutex.unlock lock;
    r
  in
  let client conn =
    let rec loop () =
      match next () with
      | None -> ()
      | Some i ->
        let input = reqs.(i) in
        let s = Clock.now_ms () in
        let reply = send conn ~rid:i input.Inputs.request in
        let e = Clock.now_ms () in
        answers.(i) <-
          Some { input; reply; ms = e -. s; done_at = (e /. 1000.0) -. !t0 };
        loop ()
    in
    loop ()
  in
  (* One measured phase, continuing with the rounds after the previous
     attempt's, so every request stays a cold one. *)
  let attempt () =
    let before = snapshot d in
    let start = !cursor in
    Gc.full_major ();  (* a collected heap, as in plan-suite *)
    closed := false;
    t0 := Clock.now ();
    List.iter Thread.join (List.map (Thread.create client) conns);
    let elapsed = Clock.now () -. !t0 in
    (start, !cursor, elapsed, before, snapshot d)
  in
  let (start, stop, elapsed, before, after), stolen =
    Host.measure
      ~retry:(fun () -> (not traced) && !cursor + Inputs.round_size <= total)
      attempt
  in
  let rss = Host.vmhwm_mb d.pid in
  List.iter close conns;
  Daemon.stop d;
  let records = slow_records d ~after_id:(List.length named) in
  Daemon.discard d;
  let answers = Array.init !cursor (fun i -> Option.get answers.(i)) in
  (* Distinct specs to check, of every attempt: the warm-up plans first,
     then every measured spec once. *)
  let seen = Hashtbl.create 1024 in
  let items = ref (List.rev_map expect_served served) in
  Array.iter
    (fun a ->
      if not (Hashtbl.mem seen a.input.Inputs.label) then begin
        Hashtbl.add seen a.input.label (List.length !items);
        let expect =
          match a.reply with
          | Ok (Protocol.Plan p) -> Served p.outcome
          | Ok (Protocol.Error m) -> Failed m
          | Ok _ | Error _ -> Failed "no plan"
        in
        items := (a.input, expect) :: !items
      end)
    answers;
  let items = Array.of_list (List.rev !items) in
  let verdicts, planner_layers = run_checks ~spans ~traced items in
  (* The kept attempt's requests make the figures; a failure no known
     fault explains in any attempt makes the outputs incorrect. *)
  let tally = Stats.Tally.create () in
  let unexpected = ref [] and lines = ref [] and lat = ref [] in
  let rounds = (stop - start) / Inputs.round_size in
  let round_good = Array.make rounds 0 and round_end = Array.make rounds 0.0 in
  warmup_verdicts ~unexpected verdicts named;
  let failures = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      let kept = i >= start && i < stop in
      let r = (i - start) / Inputs.round_size in
      if kept then begin
        Stats.Tally.attempt tally;
        round_end.(r) <- Float.max round_end.(r) a.done_at
      end;
      let fail fault detail =
        if kept then Stats.Tally.fail tally fault;
        if kept || String.equal fault "unexpected" then begin
          let key = (a.input.Inputs.label, fault, detail) in
          Hashtbl.replace failures key
            (1 + Option.value (Hashtbl.find_opt failures key) ~default:0)
        end
      in
      match (a.reply, verdicts.(Hashtbl.find seen a.input.label)) with
      | Ok (Protocol.Plan p), Good _ when not p.cached ->
        if kept then begin
          lat := a.ms :: !lat;
          round_good.(r) <- round_good.(r) + 1
        end
      | Ok (Protocol.Plan _), Good _ -> fail "unexpected" "a cold request hit the cache"
      | Ok (Protocol.Error _), Known (fault, detail) -> fail fault detail
      | Ok (Protocol.Error m), Bad b -> fail "unexpected" (m ^ " / " ^ b)
      | Ok (Protocol.Plan _), (Bad b | Known (_, b)) -> fail "unexpected" b
      | Ok (Protocol.Shed _), _ -> fail "unexpected" "shed"
      | Ok (Protocol.Timeout _), _ -> fail "unexpected" "timeout"
      | Ok _, _ -> fail "unexpected" "not a plan reply"
      | Error m, _ -> fail "unexpected" ("transport: " ^ m))
    answers;
  Hashtbl.iter
    (fun (label, fault, detail) count ->
      if String.equal fault "unexpected" then
        unexpected := (label ^ ": " ^ detail) :: !unexpected;
      lines := Printf.sprintf "FAILED %s x %d: %s [%s]" label count fault detail :: !lines)
    failures;
  let good = Stats.Tally.succeeded tally in
  let e2e =
    (Report.metric ~note:"median of 3 set-ups" "setup_s" "s" setup_s
    :: latency_metrics ~good ~elapsed !lat
         ~windows:
           (List.init rounds (fun r ->
                ( round_good.(r),
                  round_end.(r) -. if r = 0 then 0.0 else round_end.(r - 1) ))))
    @ [ Report.metric ~note:"VmHWM of the daemon" "peak_rss_mb" "MiB" rss ]
    @ named_quality named verdicts
  in
  let jobs = after.jobs -. before.jobs in
  {
    Report.tally;
    unexpected = List.rev !unexpected;
    e2e;
    layers =
      (if traced then
         planner_layers
         @ service_layers ~spans ~conns ~sent:(stop - start) ~records ~before ~after
       else []);
    gc_mwords =
      (after.worker_minor_words -. before.worker_minor_words)
      /. Float.max 1.0 jobs /. 1e6;
    spans;
    lines = Host.line stolen :: List.sort compare !lines;
  }

let hit ~pdw ~seed ~seconds ~traced =
  let named = Inputs.named () in
  let set = Inputs.hit_set ~seed in
  let setup_s, d, served = setup ~pdw ~traced ~prime:set ~rehit:true in
  let items = Array.of_list (List.map expect_served served) in
  let expected = Array.map (function _, Served o -> Some o | _ -> None) items in
  let spans = Spans.create () in
  let conn = connect ?spans:(if traced then Some spans else None) d.Daemon.socket in
  let inputs = Array.of_list set in
  let wrong = ref [] and rid = ref 0 in
  (* Every [window] consecutive requests form one window: throughput is
     the median over windows, and the tail is taken over window times.
     A single hit's own tail is a handful of GC pauses that swung by a
     third between identical runs; a window's time is steady, and a run
     holds a few hundred windows whether the host is quiet or busy. *)
  let window = 32 in
  (* One measured phase: whole passes over the warm set for [seconds]. *)
  let attempt () =
    let before = snapshot d in
    let tally = Stats.Tally.create () in
    let lat = ref [] and windows = ref [] and w0 = ref 0.0 and good0 = ref 0 in
    let first_rid = !rid in
    Gc.full_major ();  (* a collected heap, as in plan-suite *)
    let gc0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let passes = ref 0 in
    while !passes = 0 || Clock.now () -. t0 < seconds do
      Array.iteri
        (fun k (input : Inputs.input) ->
          if !rid mod window = 0 then begin
            w0 := Clock.now_ms ();
            good0 := Stats.Tally.succeeded tally
          end;
          let s = Clock.now_ms () in
          let reply = send conn ~rid:!rid input.request in
          let e = Clock.now_ms () in
          incr rid;
          Stats.Tally.attempt tally;
          (match (reply, expected.(k)) with
          | Ok (Protocol.Plan p), Some x
            when p.cached && p.tier = Protocol.Memory && String.equal p.outcome x ->
            lat := (e -. s) :: !lat
          | _ ->
            Stats.Tally.fail tally "unexpected";
            wrong := input.label :: !wrong);
          if !rid mod window = 0 then
            windows :=
              (Stats.Tally.succeeded tally - !good0, (e -. !w0) /. 1000.0)
              :: !windows)
        inputs;
      incr passes
    done;
    let elapsed = Clock.now () -. t0 in
    let minor_words = Gc.minor_words () -. gc0 in
    (tally, !lat, !windows, elapsed, !rid - first_rid, minor_words, before, snapshot d)
  in
  let (tally, lat, windows, elapsed, sent, minor_words, before, after), stolen =
    Host.measure ~retry:(fun () -> not traced) attempt
  in
  let rss = Host.vmhwm_mb d.pid in
  close conn;
  Daemon.stop d;
  let records = slow_records d ~after_id:(2 * Array.length inputs) in
  Daemon.discard d;
  let verdicts, planner_layers = run_checks ~spans ~traced items in
  let unexpected = ref [] in
  warmup_verdicts ~unexpected verdicts set;
  let lines =
    List.map
      (fun label -> Printf.sprintf "FAILED %s: not a memory-tier hit equal to its warm-up plan" label)
      (List.sort_uniq compare !wrong)
  in
  unexpected := lines @ !unexpected;
  let e2e =
    (Report.metric ~note:"median of 3 set-ups" "setup_s" "s" setup_s
    :: latency_metrics
         ~tail_of:
           ( Printf.sprintf "windows of %d requests" window,
             Stats.sorted (List.map (fun (_, s) -> s *. 1000.0) windows) )
         ~windows ~good:(Stats.Tally.succeeded tally) ~elapsed lat)
    @ [ Report.metric ~note:"VmHWM of the daemon" "peak_rss_mb" "MiB" rss ]
    @ named_quality named verdicts
  in
  {
    Report.tally;
    unexpected = List.rev !unexpected;
    e2e;
    layers =
      (if traced then
         planner_layers
         @ service_layers ~spans ~conns:[ conn ] ~sent ~records ~before ~after
       else []);
    gc_mwords = minor_words /. float_of_int (max 1 sent) /. 1e6;
    spans;
    lines = Host.line stolen :: lines;
  }
