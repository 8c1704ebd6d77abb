(** The fleet front end: one process speaking the existing wire
    protocol to clients, fanning digest-keyed work out over a
    consistent-hash ring of shard daemon processes.

    Clients connect exactly as they would to a single daemon — same
    framing, same verbs, byte-identical [Plan] outcomes.  Behind the
    socket, every [submit]'s content digest ({!Protocol.digest}) maps
    onto the ring ({!Ring}): the same spec always lands on the same
    shard process, so each shard's in-memory plan cache stays hot for
    its slice of the keyspace and the fleet-wide hit rate matches a
    single process's.

    The forwarding path moves raw frame bytes: a client's request frame
    goes to its shard verbatim, and the shard's reply frame comes back
    verbatim — the router parses requests (small; it needs the verb and
    the digest preimage) but never reply payloads, so byte-identity is
    structural and a ~20 KB plan outcome costs two copies per hop, not
    a JSON round-trip.

    Per shard the router keeps one persistent pipelined connection —
    opened with a {!Protocol.Hello} handshake that rejects wire-rev
    mismatches up front — with a write-side FIFO of waiter promises
    and a dedicated reader thread that fulfils them in frame order (the
    daemon's replies leave in its connection's frame order, so no
    request ids are needed on the wire).  Writers serialize on a lock
    of their own, held across a frame's enqueue and its write; the
    reader never waits on it, so replies drain while a write blocks
    and pipelined load cannot deadlock router and shard.  A shard death
    fails its queued waiters, drops the shard from the ring, and
    re-forwards the affected requests to the next live shard, at most
    three times; planning is deterministic and idempotent, so a kill
    mid-campaign costs replans, never wrong or lost answers.  A
    reconnector thread probes down shards every 0.5 s and re-rings them
    in when they return.

    The client-facing socket is the {!Listener} a shard daemon runs too,
    with the same dispatch: each request of a pipelined batch is
    forwarded when its frame is read — a submit to the shard its digest
    maps to, a burn to the one its sequence number maps to — and
    awaited, failing over if need be, when its reply is due.

    [stats] and [metrics] answer for the whole fleet: per-shard
    snapshots are scraped over the same connections and merged —
    field-wise sums for the JSON tallies, {!Pdw_obs.Expo.merge} (exact
    bucket-wise histogram summation) for the Prometheus families — with
    the router's own routing counters and forward-latency histogram
    alongside per-process breakdowns. *)

(** The consistent-hash ring, exposed as a pure value for tests: each
    node contributes [vnodes] points (MD5-derived) on a 63-bit circle;
    a key belongs to the first point clockwise from its own hash.
    Removing a node moves only the keys that mapped to it. *)
module Ring : sig
  type t

  (** [create ~nodes ~vnodes] builds the ring ([vnodes] floored at 1).
      Deterministic: same nodes and vnodes, same ring. *)
  val create : nodes:string list -> vnodes:int -> t

  (** [lookup t key] is the owning node, [None] on an empty ring. *)
  val lookup : t -> string -> string option

  (** Total points ([nodes × vnodes]). *)
  val size : t -> int

  (** The 63-bit point hash (exposed for tests). *)
  val hash_point : string -> int
end

type config = {
  socket_path : string;  (** the front-end listening socket *)
  shard_sockets : string list;  (** one daemon socket per shard process *)
  vnodes : int;  (** ring points per shard (default 64) *)
}

val default_config :
  socket_path:string -> shard_sockets:string list -> config

type t

(** [start config] binds the front-end socket ({!Listener.bind}),
    connects to the shards (failures leave a shard [down]; the
    reconnector keeps probing) and returns immediately.  A [shutdown]
    frame is broadcast to every live shard once its [Bye] is flushed,
    then the router stops.
    @raise Invalid_argument on an empty shard list.
    @raise Unix.Unix_error when the socket cannot be bound, [EADDRINUSE]
    when a live daemon answers on it. *)
val start : config -> t

val config : t -> config

(** Shards currently connected. *)
val live_count : t -> int

(** The fleet [stats] payload: router identity and routing counters
    under ["fleet"], summed shard ["requests"]/["cache"] tallies,
    forward-latency percentiles, and a ["procs"] array with each shard
    process's own stats snapshot (or its down reason). *)
val stats_json : t -> Pdw_obs.Json.t

(** The fleet scrape surface: router families ([pdw_router_*],
    [pdw_fleet_*]), per-process breakdowns ([pdw_proc_*{proc=…}]), and
    every shard family merged by summation — minus the per-shard
    uptimes, which do not add. *)
val metrics_text : t -> string

(** Initiate shutdown and wait: close the front end and the backend
    connections.  Does not stop the shard daemons — send [shutdown]
    through the router (it broadcasts to the fleet first) or use
    [pdw fleet stop] for that.  Idempotent. *)
val stop : t -> unit

(** Block until the router has stopped. *)
val wait : t -> unit
