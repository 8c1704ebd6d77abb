(** Per-request stage tracing for the planning service.

    [Trace] answers "where does planner time go, in aggregate";
    histograms answer "what is the p99".  Neither answers "what
    happened to *that* request" — the one that took 900 ms when the
    p99 is 12.  This module carries a compact stage-timestamp record
    through a request's life: an id minted at accept, one [(stage,
    duration)] pair appended as the request crosses each boundary
    (admission, cache lookup, coalesce wait, worker queue, the
    engine's own stage names, reply write), and the finished record
    landing in a bounded ring of recent requests plus — optionally —
    a slow-request JSONL ledger.

    The ring is always on: it is a fixed array overwritten in place,
    so noting a record is one mutex-protected store.  The slow-request
    ledger follows the [Events] discipline: off by default behind one
    atomic flag, a single atomic load per request when disabled, and
    byte-inert — with the ledger off the service's replies and files
    are identical to an uninstrumented build (regression-tested in
    [test/test_obs.ml]). *)

(** How the service disposed of the request. *)
type outcome =
  | Hit  (** served from the plan cache *)
  | Planned  (** ran the engine *)
  | Coalesced  (** waited on another in-flight identical request *)
  | Shed  (** rejected by admission control *)
  | Timeout  (** gave up waiting for a worker *)
  | Failed  (** engine or protocol error *)

type record = {
  id : int;  (** unique per server run, minted at accept *)
  digest : string;  (** spec digest — correlates with cache keys *)
  outcome : outcome;
  total_ms : float;  (** accept to reply, monotonic *)
  stages : (string * float) list;
      (** [(stage, duration_ms)] in traversal order; stage names are
          the service boundaries plus [Engine] stage names. *)
}

val outcome_to_string : outcome -> string

val outcome_of_string : string -> outcome option

(** {1 The recent-requests ring} *)

(** A bounded ring of the most recent finished requests.  Owned by the
    server (not module-global) so concurrent servers in one process —
    the test suite runs several — do not share it. *)
type ring

(** [create_ring ()] holds the last [capacity] records
    (default 512). *)
val create_ring : ?capacity:int -> unit -> ring

(** Total records ever noted (≥ what the ring still holds). *)
val seen : ring -> int

(** Note a finished request: store it in the ring and, when the
    slow-request ledger is enabled and [total_ms] meets the threshold,
    append it there too. *)
val note : ring -> record -> unit

(** The retained records, most recent first. *)
val recent : ring -> record list

(** {1 The slow-request ledger}

    Process-global, like [Events]: there is one slow-request file per
    process regardless of how many servers run in it. *)

(** Append every future record with [total_ms >= threshold_ms] to
    [path] as JSONL, one [to_line] per record (file opened in append
    mode; created if missing).  Replaces any previous sink. *)
val set_slow_log : threshold_ms:float -> string -> unit

(** Close the sink; subsequent requests revert to the single-atomic-
    load no-op path. *)
val disable_slow_log : unit -> unit

val slow_log_enabled : unit -> bool

(** {1 JSONL} *)

(** One-line JSON:
    [{"id":…,"digest":…,"outcome":…,"total_ms":…,
      "stages":[["admission",0.01],…]}]. *)
val to_line : record -> string

(** Inverse of [to_line]. *)
val of_line : string -> (record, string) result
