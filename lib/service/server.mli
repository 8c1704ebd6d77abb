(** The planning daemon: a Unix-domain-socket server that turns framed
    JSON requests ({!Wire}, {!Protocol}) into wash plans.

    One process holds one of each: one plan cache, one coalescing
    table, one admission bound, one set of tallies and latency
    histograms, and one job queue that any idle worker domain drains.
    A PDW plan is a pure function of its spec, so no request needs a
    particular worker; scaling out past one process is the fleet's job
    ({!Router}).

    Request flow for a [submit]:

    + digest the canonicalized spec ({!Protocol.digest});
    + consult the plan cache — a hit answers immediately with the
      stored outcome text;
    + coalesce: if an identical job is already queued or running, join
      it as a waiter (no admission slot consumed — the waiter adds no
      work);
    + admission: a fresh job takes one of [queue_limit] in-flight slots
      or is refused with an explicit [shed] reply — the queue is
      bounded at the front door, never silently;
    + the job goes on the {!Pdw_pool.Domain_pool} queue, where the
      first idle worker takes it (a worker domain is spawned only when
      none is idle, up to [workers]); the outcome, or the planner's
      exception as an error reply, is stored and every waiter woken —
      the planner is deterministic, so a failure is never retried;
    + a waiter that outlives [job_timeout_ms] gets a [timeout] reply;
      the job itself keeps running and still populates the cache.

    The socket side is the {!Listener} the fleet {!Router} also runs,
    with the router's dispatch: a submit is decided when its frame is
    read (the steps above up to the queue), and its job is awaited only
    when its reply is due, so a connection's pipelined cold submits
    plan side by side — each takes its own admission slot, and a
    pipeline deeper than [queue_limit] can be shed.  [ping], [version],
    [stats] and [metrics] are answered when their reply is due, so a
    pipelined [stats] sees the batch's earlier requests finished.
    Worker domains never touch a socket.

    Served outcomes are byte-identical to [pdw run --json] on the same
    spec: workers run the same synthesis/optimize/serialize pipeline
    ({!Engine}), and replies splice the outcome text verbatim
    ({!Protocol.reply_to_string}). *)

type config = {
  socket_path : string;
  workers : int;  (** most planner worker domains, spawned on demand *)
  queue_limit : int;
      (** max jobs in flight (queued + running); a fresh job beyond it
          is shed, whatever its digest *)
  cache_capacity : int;  (** plan-cache entries *)
  job_timeout_ms : int;  (** per-request wait before a [timeout] reply *)
  store_dir : string option;
      (** persistent {!Plan_store} directory backing the plan cache as
          a second tier — cached plans survive restarts, and shard
          processes pointed at the same directory share warm plans *)
  store_max_bytes : int;  (** store byte budget (LRU-evicted) *)
}

(** Defaults: 2 workers, 64 in-flight jobs, 256 cached plans, 60 s
    timeout, no persistent store (256 MiB budget when one is
    configured). *)
val default_config : socket_path:string -> config

type t

(** [start config] binds the socket ({!Listener.bind}: a stale socket
    file is replaced, SIGPIPE is ignored), starts the accept thread, and
    returns immediately; worker domains are spawned on demand.
    @raise Unix.Unix_error when the socket cannot be bound, [EADDRINUSE]
    when a live daemon answers on it. *)
val start : config -> t

val config : t -> config

(** The [stats] payload: queue depth and limit, shed count, cache
    counters and hit rate, request tallies, and the sample count, mean
    and p50/p95/p99 of three cumulative histograms, all in
    milliseconds: [latency_ms] (submit wall time, accept to reply),
    [queue_wait_ms] (admission to worker pickup) and [service_ms]
    (worker compute time per job).  The serve bench runs each campaign
    on a fresh daemon, so these read as that campaign's own. *)
val stats_json : t -> Pdw_obs.Json.t

(** The scrape surface: Prometheus text exposition of every counter,
    gauge and histogram the server keeps ([pdw_*]), per-worker job and
    GC families ([pdw_worker_*{worker=…}]) and the process-global
    {!Pdw_obs.Counters} registry (the planner's [synth.*], [core.*] and
    [lp.*] counters).  Served for the [metrics] protocol verb and
    [pdw stats --prometheus]. *)
val metrics_text : t -> string

(** The most recent finished submits (bounded ring, newest first):
    request id, digest, outcome, and the stage-by-stage timing
    breakdown.  See {!Pdw_obs.Reqtrace}. *)
val recent_requests : t -> Pdw_obs.Reqtrace.record list

(** Initiate shutdown and wait: stop accepting, close live connections,
    join the worker domains (running jobs finish; queued jobs are
    abandoned — their waiters are gone with the connections).  The
    socket file is removed.  Idempotent. *)
val stop : t -> unit

(** Block until the server has stopped (via [stop] or a [shutdown]
    request). *)
val wait : t -> unit
