(** A small pool of worker domains draining one shared job queue.

    [map] fans a list out (the router's parallel port-pair flush, the
    harness, the slow tests): the calling domain drains the queue
    alongside [size - 1] workers, so a pool of size [n] keeps exactly
    [n] domains busy.  A pool of size 1 runs every [map] inline —
    single-core machines degrade gracefully to the serial behaviour.

    [submit] is fire-and-forget for long-lived asynchronous callers (the
    planning service): any idle worker takes the job.  Worker domains
    are spawned lazily — one starts only when a submitted job finds no
    idle worker, up to [size] — because every live domain lengthens the
    stop-the-world barrier of every minor collection. *)

type t

(** Default pool size: [Domain.recommended_domain_count ()], clamped to
    [1..8] (the fan-out here is at most the eight Table II benchmarks). *)
val default_size : unit -> int

(** [create ?size ()] makes a pool with no domains yet.  [size] defaults
    to [default_size]; values below 1 are clamped to 1. *)
val create : ?size:int -> unit -> t

val size : t -> int

(** [submit t job] enqueues [job] on the shared queue and returns
    immediately, spawning a worker domain if no idle one can take it
    and fewer than [size] are live.  Exceptions from [job] are
    swallowed by the worker loop; completion signalling is the caller's
    responsibility.
    @raise Invalid_argument on a shut-down pool. *)
val submit : t -> (unit -> unit) -> unit

(** Jobs enqueued but not yet picked up by a worker. *)
val pending : t -> int

(** One worker slot's telemetry, as sampled by the worker itself after
    each submitted job.  [minor_words]/[major_words] are the worker
    domain's own cumulative GC allocation counters ([Gc.minor_words]
    and [Gc.counters], which read only the calling domain's — so only
    the worker can read its own), so their deltas rate cleanly in a
    scraper.  [live] is
    whether the slot's lazily-spawned domain exists. *)
type worker_stats = {
  jobs_done : int;
  minor_words : float;
  major_words : float;
  live : bool;
}

(** Per-slot telemetry, index [i] for the [i]-th domain spawned; always
    [size] entries. *)
val worker_stats : t -> worker_stats array

(** [map t f xs] applies [f] to every element, fanning the calls out
    across the pool.  Results keep list order.  If any call raised, one
    of the exceptions is re-raised after all jobs have settled. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Signal the workers to exit and join them.  Jobs still queued are
    abandoned.  [submit] raises afterwards. *)
val shutdown : t -> unit

(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)
val with_pool : ?size:int -> (t -> 'a) -> 'a
