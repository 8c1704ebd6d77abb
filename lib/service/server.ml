module Json = Pdw_obs.Json
module Counters = Pdw_obs.Counters
module Trace = Pdw_obs.Trace
module Histogram = Pdw_obs.Histogram
module Clock = Pdw_obs.Clock
module Reqtrace = Pdw_obs.Reqtrace
module Expo = Pdw_obs.Expo
module Domain_pool = Pdw_pool.Domain_pool

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  cache_capacity : int;
  job_timeout_ms : int;
  store_dir : string option;
  store_max_bytes : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_limit = 64;
    cache_capacity = 256;
    job_timeout_ms = 60_000;
    store_dir = None;
    store_max_bytes = 256 * 1024 * 1024;
  }

(* One job on the worker pool — a plan of a spec, or a burn — shared by
   every coalesced waiter.  Waiters poll [state] under [lock] (OCaml's
   Condition has no timed wait, and the per-request timeout must fire
   even if the worker never finishes). *)
type work = Plan of Protocol.spec | Burn of int

type job_state = Running | Finished of (string, string) result

type job = {
  key : string option;  (* the digest it is registered and cached under *)
  work : work;
  enqueued_at : float;  (* [Clock.now_ms] at admission *)
  mutable state : job_state;
  (* Written by the worker under [lock] before [state] flips to
     [Finished], so any waiter that observes the result also sees the
     job's own timing breakdown. *)
  mutable queue_ms : float;  (* admission to worker pickup *)
  mutable stage_ms : (string * float) list;  (* Engine.plan_timed stages *)
  lock : Mutex.t;
}

type counts = {
  mutable submitted : int;
  mutable completed : int;
  mutable coalesced : int;
  mutable timeouts : int;
  mutable errors : int;
  mutable burns : int;
}

type t = {
  cfg : config;
  cache : Plan_cache.t;
  pool : Domain_pool.t;  (* one queue; any idle worker takes the job *)
  jobs : (string, job) Hashtbl.t;  (* in-flight jobs, for coalescing *)
  jobs_lock : Mutex.t;
  adm : Admission.t;  (* bounded queued+running slots *)
  counts : counts;
  counts_lock : Mutex.t;
  (* Lock-free; recorded without [counts_lock]. *)
  h_latency : Histogram.t;  (* submit wall time, accept to reply (ms) *)
  h_queue : Histogram.t;  (* admission to worker pickup (ms) *)
  h_service : Histogram.t;  (* worker compute time per job (ms) *)
  req_ids : int Atomic.t;  (* request ids, minted at accept *)
  ring : Reqtrace.ring;  (* recent finished submits *)
  started_at : float;
  listener : Listener.t;  (* socket, connections and lifecycle *)
}

let config t = t.cfg

(* Monotonic milliseconds: every duration below is a difference of two
   of these, immune to NTP steps (see [Pdw_obs.Clock]). *)
let now_ms = Clock.now_ms

(* --- metrics -------------------------------------------------------- *)

let with_counts t f =
  Mutex.lock t.counts_lock;
  f t.counts;
  Mutex.unlock t.counts_lock

(* A private copy of the tallies, taken under their lock. *)
let snapshot_counts t =
  Mutex.lock t.counts_lock;
  let copy = { t.counts with submitted = t.counts.submitted } in
  Mutex.unlock t.counts_lock;
  copy

let stats_json t =
  let c = snapshot_counts t in
  let cache = Plan_cache.stats t.cache in
  let hist_summary h =
    Json.Obj
      [
        ("samples", Json.Int (Histogram.count h));
        ("mean", Json.Float (Histogram.mean h));
        ("p50", Json.Float (Histogram.quantile h 0.50));
        ("p95", Json.Float (Histogram.quantile h 0.95));
        ("p99", Json.Float (Histogram.quantile h 0.99));
      ]
  in
  Json.Obj
    [
      ("version", Json.Str Version.version);
      ("workers", Json.Int t.cfg.workers);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ( "queue",
        Json.Obj
          [
            ("in_flight", Json.Int (Admission.in_flight t.adm));
            ("pending", Json.Int (Domain_pool.pending t.pool));
            ("limit", Json.Int (Admission.limit t.adm));
            ("depth_peak", Json.Int (Admission.peak t.adm));
            ("shed", Json.Int (Admission.shed_count t.adm));
          ] );
      ( "cache",
        Json.Obj
          ([
             ("hits", Json.Int cache.Plan_cache.hits);
             ("misses", Json.Int cache.misses);
             ("evictions", Json.Int cache.evictions);
             ("promotions", Json.Int cache.promotions);
             ("demotions", Json.Int cache.demotions);
             ("length", Json.Int cache.length);
             ("capacity", Json.Int cache.capacity);
             ("hit_rate", Json.Float (Plan_cache.hit_rate cache));
           ]
          @
          match Plan_cache.store_stats t.cache with
          | None -> []
          | Some (st : Plan_store.stats) ->
            [
              ( "store",
                Json.Obj
                  [
                    ("hits", Json.Int st.hits);
                    ("misses", Json.Int st.misses);
                    ("writes", Json.Int st.writes);
                    ("evictions", Json.Int st.evictions);
                    ("corrupt", Json.Int st.corrupt);
                    ("entries", Json.Int st.entries);
                    ("bytes", Json.Int st.bytes);
                    ("max_bytes", Json.Int st.max_bytes);
                  ] );
            ]) );
      ( "requests",
        Json.Obj
          [
            ("submitted", Json.Int c.submitted);
            ("completed", Json.Int c.completed);
            ("coalesced", Json.Int c.coalesced);
            ("timeouts", Json.Int c.timeouts);
            ("errors", Json.Int c.errors);
            ("burns", Json.Int c.burns);
          ] );
      ("latency_ms", hist_summary t.h_latency);
      ("queue_wait_ms", hist_summary t.h_queue);
      ("service_ms", hist_summary t.h_service);
    ]

(* Prometheus text exposition of the full telemetry surface.  Worker
   families ([pdw_worker_*{worker=…}]) carry each domain's job count
   and GC story; allocation words are cumulative, so their rate() is
   allocation throughput. *)
let metrics_text t =
  let e = Expo.create () in
  let c = snapshot_counts t in
  let fl = float_of_int in
  Expo.gauge e ~name:"pdw_uptime_seconds"
    ~help:"Seconds since the server started"
    [ ([], Unix.gettimeofday () -. t.started_at) ];
  Expo.gauge e ~name:"pdw_workers"
    ~help:"Configured worker domains"
    [ ([], fl t.cfg.workers) ];
  (* Request tallies, one counter per kind. *)
  List.iter
    (fun (kind, n) ->
      Expo.counter e
        ~name:(Printf.sprintf "pdw_requests_%s_total" kind)
        ~help:(Printf.sprintf "Requests %s" kind)
        [ ([], fl n) ])
    [
      ("submitted", c.submitted);
      ("completed", c.completed);
      ("coalesced", c.coalesced);
      ("timeouts", c.timeouts);
      ("errors", c.errors);
      ("burns", c.burns);
    ];
  Expo.counter e ~name:"pdw_requests_shed_total"
    ~help:"Requests refused by admission control"
    [ ([], fl (Admission.shed_count t.adm)) ];
  (* Queue and cache state. *)
  Expo.gauge e ~name:"pdw_queue_in_flight"
    ~help:"Jobs admitted and not yet released (queued + running)"
    [ ([], fl (Admission.in_flight t.adm)) ];
  Expo.gauge e ~name:"pdw_queue_limit" ~help:"Admission limit"
    [ ([], fl (Admission.limit t.adm)) ];
  Expo.gauge e ~name:"pdw_queue_depth_peak"
    ~help:"Deepest the admission window has been"
    [ ([], fl (Admission.peak t.adm)) ];
  let cache = Plan_cache.stats t.cache in
  Expo.counter e ~name:"pdw_cache_hits_total" ~help:"Plan-cache hits"
    [ ([], fl cache.hits) ];
  Expo.counter e ~name:"pdw_cache_misses_total" ~help:"Plan-cache misses"
    [ ([], fl cache.misses) ];
  Expo.counter e ~name:"pdw_cache_evictions_total"
    ~help:"Plans evicted to admit fresher ones"
    [ ([], fl cache.evictions) ];
  Expo.counter e ~name:"pdw_cache_promotions_total"
    ~help:"Store-tier hits copied up into the memory tier"
    [ ([], fl cache.promotions) ];
  Expo.counter e ~name:"pdw_cache_demotions_total"
    ~help:"Plans written through to the persistent store tier"
    [ ([], fl cache.demotions) ];
  Expo.gauge e ~name:"pdw_cache_length" ~help:"Plans currently cached"
    [ ([], fl cache.length) ];
  Expo.gauge e ~name:"pdw_cache_capacity" ~help:"Plan-cache capacity"
    [ ([], fl cache.capacity) ];
  (match Plan_cache.store_stats t.cache with
  | None -> ()
  | Some (st : Plan_store.stats) ->
    Expo.counter e ~name:"pdw_store_hits_total"
      ~help:"Persistent plan-store hits (CRC-verified reads)"
      [ ([], fl st.hits) ];
    Expo.counter e ~name:"pdw_store_misses_total"
      ~help:"Persistent plan-store misses"
      [ ([], fl st.misses) ];
    Expo.counter e ~name:"pdw_store_writes_total"
      ~help:"Plans persisted to the store (atomic tmp+rename)"
      [ ([], fl st.writes) ];
    Expo.counter e ~name:"pdw_store_evictions_total"
      ~help:"Store files unlinked to hold the byte budget"
      [ ([], fl st.evictions) ];
    Expo.counter e ~name:"pdw_store_corrupt_total"
      ~help:"Store files that failed CRC/length checks (deleted)"
      [ ([], fl st.corrupt) ];
    Expo.gauge e ~name:"pdw_store_entries" ~help:"Plans on disk"
      [ ([], fl st.entries) ];
    Expo.gauge e ~name:"pdw_store_bytes" ~help:"Store bytes on disk"
      [ ([], fl st.bytes) ]);
  (* Latency story. *)
  Expo.histogram e ~name:"pdw_request_latency_ms"
    ~help:"Submit wall time, accept to reply (ms)" t.h_latency;
  Expo.histogram e ~name:"pdw_queue_wait_ms"
    ~help:"Admission to worker pickup (ms)" t.h_queue;
  Expo.histogram e ~name:"pdw_service_ms"
    ~help:"Worker compute time per job (ms)" t.h_service;
  (* Worker domains: job counts and the worker's own GC counters. *)
  let ws = Domain_pool.worker_stats t.pool in
  let per_worker get =
    Array.to_list
      (Array.mapi
         (fun i (w : Domain_pool.worker_stats) ->
           ([ ("worker", string_of_int i) ], get w))
         ws)
  in
  Expo.counter e ~name:"pdw_worker_jobs_done_total"
    ~help:"Jobs completed by each worker domain"
    (per_worker (fun w -> fl w.jobs_done));
  Expo.counter e ~name:"pdw_worker_minor_words_total"
    ~help:"Cumulative minor-heap words allocated by each worker domain"
    (per_worker (fun w -> w.minor_words));
  Expo.counter e ~name:"pdw_worker_major_words_total"
    ~help:"Cumulative major-heap words allocated by each worker domain"
    (per_worker (fun w -> w.major_words));
  Expo.gauge e ~name:"pdw_worker_live"
    ~help:"Whether the worker's lazily-spawned domain exists (0/1)"
    (per_worker (fun w -> if w.live then 1.0 else 0.0));
  Expo.counter e ~name:"pdw_reqtrace_seen_total"
    ~help:"Finished submits noted in the recent-requests ring"
    [ ([], fl (Reqtrace.seen t.ring)) ];
  (* The process-global Pdw_obs.Counters registry, one labelled family
     per kind (planner internals: pivots, cache probes…). *)
  let cells = Counters.all () in
  let row (n, _, v) = ([ ("name", n) ], fl v) in
  (match List.filter (fun (_, k, _) -> k = Counters.Counter) cells with
  | [] -> ()
  | cs ->
    Expo.counter e ~name:"pdw_internal_total"
      ~help:"Process-global Pdw_obs.Counters counters, by name"
      (List.map row cs));
  (match List.filter (fun (_, k, _) -> k = Counters.Gauge) cells with
  | [] -> ()
  | gs ->
    Expo.gauge e ~name:"pdw_internal_gauge"
      ~help:"Process-global Pdw_obs.Counters gauges, by name"
      (List.map row gs));
  Expo.contents e

let recent_requests t = Reqtrace.recent t.ring

(* --- the job machinery ---------------------------------------------- *)

(* Wait for [job] to finish, polling its state until [deadline_ms]; a
   wait that runs out counts one timeout.  1 ms granularity: coarse
   against planner runtimes, and waiters are systhreads, so the polls
   just interleave with real work. *)
let wait_job t job ~deadline_ms =
  let rec loop () =
    Mutex.lock job.lock;
    let state = job.state in
    Mutex.unlock job.lock;
    match state with
    | Finished r -> Some r
    | Running when now_ms () < deadline_ms ->
      Thread.delay 0.001;
      loop ()
    | Running ->
      with_counts t (fun c -> c.timeouts <- c.timeouts + 1);
      None
  in
  loop ()

(* [Protocol.reply_to_string] splices outcome text verbatim into the
   wire frame, relying on Json_export's byte-identical parse/print
   round-trip.  That invariant is checked here, once per *computed*
   plan — not on every reply — so a violation (engine drift, truncated
   bytes) surfaces as a loud per-request error instead of a corrupt
   frame served from the cache forever after. *)
let validate_outcome outcome =
  match Json.parse outcome with
  | Ok j when String.equal (Json.to_string j) outcome -> Ok outcome
  | Ok _ -> Error "internal: plan outcome is not round-trip-canonical JSON"
  | Error m ->
    Error (Printf.sprintf "internal: plan outcome is not valid JSON: %s" m)

(* The worker side of one job: run it, publish a keyed plan to the
   cache, wake the waiters, give the admission slot back.  The planner
   is deterministic, so an exception is answered at once — a second
   attempt would only repeat it.  The worker also owns the job's timing
   story — how long it waited in the queue, how long each engine stage
   took — written into the job before the result is published, so
   waiters read both together. *)
let run_job t job =
  let picked_up = now_ms () in
  let queue_ms = Float.max 0.0 (picked_up -. job.enqueued_at) in
  Histogram.record t.h_queue queue_ms;
  let result, stages =
    match job.work with
    | Burn ms ->
      Unix.sleepf (float_of_int ms /. 1000.0);
      (Ok "", [])
    | Plan spec -> (
      match Engine.plan_timed spec with
      | result, stages -> (Result.bind result validate_outcome, stages)
      | exception e -> (Error ("planner failed: " ^ Printexc.to_string e), []))
  in
  Histogram.record t.h_service (now_ms () -. picked_up);
  (match (job.key, result) with
  | Some digest, Ok outcome -> Plan_cache.add t.cache digest outcome
  | _ -> ());
  (* Publish before deregistering: a request that finds the job in the
     table just as it finishes reads [Finished] instantly; one that
     misses the table re-checks the cache-filled path on its own. *)
  Mutex.lock job.lock;
  job.queue_ms <- queue_ms;
  job.stage_ms <- stages;
  job.state <- Finished result;
  Mutex.unlock job.lock;
  Option.iter
    (fun digest ->
      Mutex.lock t.jobs_lock;
      Hashtbl.remove t.jobs digest;
      Mutex.unlock t.jobs_lock)
    job.key;
  Admission.release t.adm;
  with_counts t (fun c ->
      match (job.work, result) with
      | Burn _, _ -> c.burns <- c.burns + 1
      | Plan _, Ok _ -> c.completed <- c.completed + 1
      | Plan _, Error _ -> c.errors <- c.errors + 1)

(* Decide, atomically against other submissions, what a request does:
   join the in-flight job registered under [key] ([Some (job, true)]),
   start a fresh job on the pool ([Some (job, false)]), or shed
   ([None]).  A keyed job is registered for coalescing and writes its
   plan to the cache; an unkeyed one ([no_cache] plans, burns) does
   neither. *)
let admit t ?key work =
  Mutex.lock t.jobs_lock;
  let admitted =
    match Option.bind key (Hashtbl.find_opt t.jobs) with
    | Some job -> Some (job, true)
    | None when Admission.try_admit t.adm ->
      let job =
        {
          key;
          work;
          enqueued_at = now_ms ();
          state = Running;
          queue_ms = 0.0;
          stage_ms = [];
          lock = Mutex.create ();
        }
      in
      Option.iter (fun digest -> Hashtbl.add t.jobs digest job) key;
      Domain_pool.submit t.pool (fun () -> run_job t job);
      Some (job, false)
    | None -> None
  in
  Mutex.unlock t.jobs_lock;
  admitted

(* --- dispatch: decide when the frame is read, answer when due ------- *)

(* A reply made now, and one made when it is due. *)
let answered reply =
  let s = Protocol.reply_to_string reply in
  fun () -> s

let later reply () = Protocol.reply_to_string (reply ())

let shed_reply t =
  Protocol.Shed
    { in_flight = Admission.in_flight t.adm; limit = Admission.limit t.adm }

(* A submit is decided here: a cache hit or a shed is answered at once;
   otherwise the request joins or starts a job, and the resolver waits
   for it only when the reply is due — so a connection's pipelined cold
   submits plan side by side. *)
let dispatch_submit t spec ~no_cache =
  let t0 = now_ms () in
  let id = 1 + Atomic.fetch_and_add t.req_ids 1 in
  let digest = Protocol.digest spec in
  (* Every exit path notes one record in the recent-requests ring (and
     the slow-request ledger, when armed): the request's id, outcome
     and stage-by-stage timing. *)
  let note outcome total_ms stages =
    Reqtrace.note t.ring
      { Reqtrace.id; digest; outcome; total_ms; stages }
  in
  with_counts t (fun c -> c.submitted <- c.submitted + 1);
  let cache_hit =
    if no_cache then None else Plan_cache.find_tier t.cache digest
  in
  let t_cache = now_ms () in
  match cache_hit with
  | Some (outcome, cache_tier) ->
    let wall_ms = t_cache -. t0 in
    let tier =
      match cache_tier with
      | Plan_cache.Memory -> Protocol.Memory
      | Plan_cache.Store -> Protocol.Store
    in
    Histogram.record t.h_latency wall_ms;
    note Reqtrace.Hit wall_ms [ ("cache", wall_ms) ];
    answered
      (Protocol.Plan
         { cached = true; coalesced = false; tier; digest; wall_ms; outcome })
  | None -> (
    match
      admit t ?key:(if no_cache then None else Some digest) (Plan spec)
    with
    | None ->
      let wall_ms = now_ms () -. t0 in
      note Reqtrace.Shed wall_ms
        [ ("cache", t_cache -. t0); ("admission", wall_ms -. (t_cache -. t0)) ];
      answered (shed_reply t)
    | Some (job, coalesced) ->
      let t_adm = now_ms () in
      if coalesced then with_counts t (fun c -> c.coalesced <- c.coalesced + 1);
      let front_stages =
        [ ("cache", t_cache -. t0); ("admission", t_adm -. t_cache) ]
      in
      later @@ fun () ->
      match
        wait_job t job ~deadline_ms:(t0 +. float_of_int t.cfg.job_timeout_ms)
      with
      | None ->
        let wall_ms = now_ms () -. t0 in
        note Reqtrace.Timeout wall_ms
          (front_stages @ [ ("wait", wall_ms -. (t_adm -. t0)) ]);
        Protocol.Timeout { after_ms = t.cfg.job_timeout_ms }
      | Some result -> (
        let t_done = now_ms () in
        let wall_ms = t_done -. t0 in
        (* The job's own breakdown was published under its lock before
           [Finished]; a coalesced waiter shares the planner stages of
           the job it joined. *)
        let stages =
          front_stages
          @ [ ("queue", job.queue_ms) ]
          @ job.stage_ms
          @ [ ("wait", t_done -. t_adm) ]
        in
        match result with
        | Error m ->
          note Reqtrace.Failed wall_ms stages;
          Protocol.Error m
        | Ok outcome ->
          Histogram.record t.h_latency wall_ms;
          note
            (if coalesced then Reqtrace.Coalesced else Reqtrace.Planned)
            wall_ms stages;
          Protocol.Plan
            {
              cached = false;
              coalesced;
              tier = Protocol.Planned;
              digest;
              wall_ms;
              outcome;
            }))

(* The daemon's half of the {!Listener} contract, as the router's: work
   is decided when its frame is read, and everything else — [stats] and
   [metrics] included, so they see the batch's earlier requests
   finished — is answered when its reply is due. *)
let dispatch t req : unit -> string =
  Trace.with_span "service.request" @@ fun () ->
  match req with
  | Protocol.Ping -> later (fun () -> Protocol.Pong)
  | Protocol.Version -> later (fun () -> Protocol.Version_reply Version.version)
  | Protocol.Stats -> later (fun () -> Protocol.Stats_reply (stats_json t))
  | Protocol.Metrics ->
    later (fun () -> Protocol.Metrics_reply (metrics_text t))
  | Protocol.Hello _ | Protocol.Shutdown ->
    (* The listener answers these itself and never dispatches them. *)
    later (fun () -> Protocol.Error "internal: front-end verb dispatched")
  | Protocol.Submit { spec; no_cache } -> dispatch_submit t spec ~no_cache
  | Protocol.Burn { ms } -> (
    (* [burn] occupies a worker and an admission slot for [ms] —
       synthetic load with a deterministic duration, for backpressure
       tests.  It waits as long as it burns, plus the normal job timeout
       for its turn in the queue. *)
    match admit t (Burn ms) with
    | None -> answered (shed_reply t)
    | Some (job, _) ->
      let budget_ms = ms + t.cfg.job_timeout_ms in
      let deadline_ms = now_ms () +. float_of_int budget_ms in
      later (fun () ->
          match wait_job t job ~deadline_ms with
          | Some _ -> Protocol.Burned { ms }
          | None -> Protocol.Timeout { after_ms = budget_ms }))

let start cfg =
  (* The daemon is the one place counters are always worth their single
     fetch-and-add: the scrape surface exports the registry, and a
     daemon with dark internals is strictly worse than one a scraper
     can read. *)
  Counters.set_enabled true;
  (* The serving hot path allocates multi-KB reply strings at request
     rate, and every minor collection stops the world across all
     domains — at the default minor-heap size the daemon spends a
     visible fraction of its time at that barrier.  A bigger nursery
     (4M words, ~32 MB per domain on 64-bit) trades a little memory for
     far fewer global pauses.  Never shrink a user-raised setting. *)
  (let gc = Gc.get () in
   let want = 4 * 1024 * 1024 in
   if gc.Gc.minor_heap_size < want then
     Gc.set { gc with Gc.minor_heap_size = want });
  let listener = Listener.bind ~role:"server" cfg.socket_path in
  let store =
    Option.map
      (fun dir -> Plan_store.open_ ~dir ~max_bytes:cfg.store_max_bytes ())
      cfg.store_dir
  in
  let t =
    {
      cfg;
      cache = Plan_cache.create ~capacity:cfg.cache_capacity ?store ();
      pool = Domain_pool.create ~size:(max 1 cfg.workers) ();
      jobs = Hashtbl.create 64;
      jobs_lock = Mutex.create ();
      adm = Admission.create ~limit:cfg.queue_limit;
      counts =
        {
          submitted = 0;
          completed = 0;
          coalesced = 0;
          timeouts = 0;
          errors = 0;
          burns = 0;
        };
      counts_lock = Mutex.create ();
      h_latency = Histogram.create ();
      h_queue = Histogram.create ();
      h_service = Histogram.create ();
      req_ids = Atomic.make 0;
      ring = Reqtrace.create_ring ();
      started_at = Unix.gettimeofday ();
      listener;
    }
  in
  (* Teardown stops the pool: running jobs finish, queued jobs die with
     their waiters. *)
  Listener.serve listener
    ~dispatch:(fun _raw req -> dispatch t req)
    ~teardown:(fun () -> Domain_pool.shutdown t.pool)
    ();
  t

let wait t = Listener.wait t.listener
let stop t = Listener.stop t.listener
