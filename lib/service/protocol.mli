(** The planning-service request/reply vocabulary and its JSON codec.

    Requests are JSON objects with an ["op"] discriminator; replies
    carry a ["status"] field.  Planned outcomes travel as the exact
    [Pdw_wash.Json_export] text a one-shot [pdw run --json] would print,
    so byte-identity between served and single-shot plans is a protocol
    guarantee, not an accident ([Json_export.to_string] round-trips
    through [Pdw_obs.Json.parse], see its interface). *)

module Json = Pdw_obs.Json

type method_ = [ `Pdw | `Dawo ]

(** What to plan: a named Table II benchmark (the ["motivating"] name
    selects the Fig. 2(a) layout, exactly like the CLI) or an inline
    assay in the [Pdw_assay.Assay_parser] text format. *)
type source = Benchmark of string | Inline of string

type spec = {
  source : source;
  method_ : method_;
  config : Pdw_wash.Pdw.config;
      (** wire-configurable subset; [ilp_config] stays at its default *)
  park : int list;
      (** operation ids whose results are parked in distributed channel
          storage before reuse ([Pdw_assay.Operation.park]); applied to
          the resolved sequencing graph before synthesis.  Order and
          duplicates are irrelevant — the canonical form sorts and
          dedups, so permutations digest equal. *)
}

(** The wire-vocabulary revision this build speaks.  Bumped on every
    incompatible frame change; the {!Hello} handshake compares peers'
    revs up front so a mismatch is a typed error reply, not a frame
    decode failure mid-pipeline. *)
val wire_rev : int

(** The canonical-form revision stamped into every {!canonical_json}.
    Bumped whenever the spec vocabulary grows (the storage [park] field
    added it), so every digest changes at once: a cached plan computed
    under the old, storage-blind form can never answer a request in the
    richer space — and a storage-free spec never aliases an old-format
    digest either. *)
val spec_rev : int

type request =
  | Submit of { spec : spec; no_cache : bool }
      (** plan (or fetch from cache); [no_cache] forces a fresh
          computation and skips coalescing *)
  | Burn of { ms : int }
      (** a synthetic job that holds a worker for [ms] milliseconds —
          load-generation and backpressure testing *)
  | Hello of { version : string; rev : int }
      (** version handshake: the peer's build version and {!wire_rev}.
          The server answers {!Hello_reply} when the revs agree and a
          loud typed [Error] when they do not — the fleet router sends
          this on every backend connect before any traffic. *)
  | Stats  (** queue depth, cache hit rate, latency percentiles *)
  | Metrics
      (** Prometheus text exposition of every counter, gauge and
          histogram the server keeps — the scrape surface behind
          [pdw stats --prometheus] *)
  | Version
  | Ping
  | Shutdown  (** stop accepting, drain, exit *)

(** Which tier produced a plan: the in-memory cache, the persistent
    on-disk store, or a fresh planner run. *)
type tier = Memory | Store | Planned

type reply =
  | Plan of {
      cached : bool;  (** served from the plan cache (either tier) *)
      coalesced : bool;  (** attached to an identical in-flight job *)
      tier : tier;  (** where the outcome bytes came from *)
      digest : string;  (** content address of the canonical spec *)
      wall_ms : float;  (** server-side time to answer this request *)
      outcome : string;
          (** the outcome bytes exactly as the server framed them: the
              [Json_export] text of the plan, checked once by the
              server to be canonical JSON when it was computed *)
    }
  | Shed of { in_flight : int; limit : int }
      (** admission refused: the bounded queue is full — back off *)
  | Timeout of { after_ms : int }
      (** the job exceeded the per-job wall-clock budget; the result
          will still land in the cache when it completes *)
  | Hello_reply of { version : string; rev : int }
      (** the server's side of the {!Hello} handshake *)
  | Stats_reply of Json.t
  | Metrics_reply of string
      (** the exposition text, JSON-escaped in transit; [pdw stats
          --prometheus] prints it verbatim *)
  | Version_reply of string
  | Pong
  | Burned of { ms : int }
  | Bye  (** shutdown acknowledged *)
  | Error of string

(** [spec ?method_ ?config ?park source] with defaults [`Pdw],
    [Pdw_wash.Pdw.default_config] and no parked operations. *)
val spec :
  ?method_:method_ ->
  ?config:Pdw_wash.Pdw.config ->
  ?park:int list ->
  source ->
  spec

(** Canonical JSON of a spec: every config field present, in a fixed
    order, with defaults resolved — the cache key's preimage.  Two
    requests digest equal iff they are the same planning problem. *)
val canonical_json : spec -> Json.t

(** Hex MD5 of [canonical_json] — the content address used by the plan
    cache and request coalescing. *)
val digest : spec -> string

val request_to_json : request -> Json.t

val request_of_json : Json.t -> (request, string) result

(** [request_of_string frame] decodes one request frame: [Json.parse],
    then {!request_of_json}; a frame that is not JSON errs with
    ["bad JSON payload: "] and the parser's message, as
    {!reply_of_string} does.  Both daemons decode requests with it. *)
val request_of_string : string -> (request, string) result

val reply_to_json : reply -> Json.t

(** [reply_to_string r] is [Json.to_string (reply_to_json r)], byte for
    byte — but for [Plan] replies the outcome text is spliced verbatim
    into a hand-built envelope instead of being re-parsed and
    re-printed.  The equality rests on the [Json_export] round-trip
    property ([to_string (parse outcome) = outcome]); the server uses
    this on every reply it frames. *)
val reply_to_string : reply -> string

(** [reply_of_string frame] decodes one reply frame; it is the inverse
    of {!reply_to_string}.  A [Plan] frame in exactly the envelope
    [reply_to_string] writes is read in place: its six envelope fields
    are matched where that printer puts them, [Json.scan] checks that
    the outcome is one well-formed value ending just before the frame's
    closing brace, and the outcome is cut out of the frame whole,
    without being parsed into a tree or printed again.  Every other
    frame — error, shed, stats and hello replies, a reordered or
    padded envelope, anything the strict scan rejects — goes through
    [Json.parse] and {!reply_of_json}, so this accepts exactly the
    frames that decode accepts, with the same result up to the
    outcome's spelling, and the same error messages (prefixed
    ["bad JSON payload: "] when the frame is not JSON). *)
val reply_of_string : string -> (reply, string) result

(** Decode a reply already parsed into a JSON value.  A [Plan]'s
    outcome comes back as [Json.to_string] of the parsed value. *)
val reply_of_json : Json.t -> (reply, string) result

(** ["memory"] / ["store"] / ["planned"] — the wire spelling. *)
val tier_name : tier -> string
