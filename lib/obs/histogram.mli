(** Lock-free log-bucketed histograms for latency and size telemetry.

    The service layer needs continuous percentiles under concurrent
    recording from many threads and domains: the previous
    implementation — a bounded sample ring fully sorted on every stats
    call — holds a lock on the record path, forgets everything older
    than the ring, and cannot be combined across shards without
    concatenating raw samples.

    This histogram fixes all three at the cost of bounded relative
    error.  Values are counted into geometric buckets: with relative
    accuracy [rel_err] = α, bucket [i] covers
    [(lo·γ^(i-1), lo·γ^i\]] for [γ = (1+α)²], and a quantile query
    answers the bucket's geometric midpoint [lo·γ^(i-½)], which is
    within a factor [1+α] of every value in the bucket — so any
    reported quantile is within α relative error of the true sample
    quantile (for values inside [[lo, hi]]; values outside clamp to
    the open-ended underflow/overflow buckets and report [lo] / the
    top bound).  Memory is constant (one cell per bucket), recording
    is O(1) — one bucket-index computation and three
    [Atomic.fetch_and_add]s, no lock anywhere — and two histograms
    with the same configuration merge exactly, bucket by bucket:
    merge is associative and commutative, so per-shard histograms sum
    into the same answer regardless of order (QCheck-verified in
    [test/test_obs.ml]).

    The running [sum] is kept in fixed point (integer units of 2⁻²⁰ of
    one value unit) so it, too, merges exactly under
    [Atomic.fetch_and_add]; it saturates only after ~4·10¹² unit-sized
    records, far beyond any service lifetime. *)

type t

(** The bucket scheme: values in [[lo, hi]] resolve within [rel_err]
    relative error.  Two histograms interoperate ([merge]) iff
    their configs are equal. *)
type config = { lo : float; hi : float; rel_err : float }

(** [create ()] uses the service-wide default config
    [{lo = 1e-3; hi = 1e7; rel_err = 0.05}] — in milliseconds, 1 µs to
    ~2.8 h at ±5%, 238 buckets.
    @raise Invalid_argument unless [0 < lo < hi] and [0 < rel_err < 1]. *)
val create : ?lo:float -> ?hi:float -> ?rel_err:float -> unit -> t

val config : t -> config

(** An empty histogram with the same config as [t]. *)
val like : t -> t

(** Record one value: lock-free, O(1), no allocation.  NaN and
    negative values count as 0 (the underflow bucket). *)
val record : t -> float -> unit

(** Values recorded. *)
val count : t -> int

(** Sum of recorded values (fixed-point, exact under merge). *)
val sum : t -> float

(** [sum / count]; 0 when empty. *)
val mean : t -> float

(** [quantile t q] for [q ∈ [0,1]]: the representative value of the
    bucket holding the sample of rank [⌊q·(n-1)+0.5⌋] — the same
    nearest-rank convention the retired sorted-array percentile code
    used, so the two agree within the bucket error bound.  0 when
    empty. *)
val quantile : t -> float -> float

(** Exact bucket-wise sum.  Associative and commutative.
    @raise Invalid_argument on differing configs. *)
val merge : t -> t -> t

(** Non-empty buckets in increasing value order, as
    [(inclusive upper bound, count)]; the open-ended overflow bucket
    reports [infinity].  The boundaries depend only on the config, so
    histograms that merge also expose comparable bucket lines. *)
val buckets : t -> (float * int) list

(** Cumulative form of [buckets] — Prometheus [le] semantics: each
    entry counts every value ≤ the bound, and a final
    [(infinity, count t)] entry is always present. *)
val cumulative : t -> (float * int) list
