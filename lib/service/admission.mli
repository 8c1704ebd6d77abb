(** Admission control: a hard bound on jobs in flight (queued + running).

    The worker pool's queue itself is unbounded, so this controller is
    the backpressure point: a submission that would push the in-flight
    count past [limit] is refused up front and the client gets an
    explicit shed reply instead of unbounded queueing.  Coalesced
    waiters on an already-admitted job do not consume slots — they add
    no work. *)

type t

val create : limit:int -> t

(** [try_admit t] takes a slot, or refuses when [limit] are in flight. *)
val try_admit : t -> bool

(** Give the slot back (job completed, failed, or was refused work
    downstream).  Must be called exactly once per successful
    [try_admit]. *)
val release : t -> unit

val in_flight : t -> int

(** High-water mark of [in_flight] since creation — the
    queued+running depth peak reported by stats and the serve bench. *)
val peak : t -> int

val limit : t -> int

(** Total submissions refused so far. *)
val shed_count : t -> int
