(** Content-addressed plan cache: digest of the canonicalized
    (layout+assay, method, config) request → the full outcome JSON a
    one-shot run would print.

    One bounded LRU behind one short lock.  [add] at capacity evicts the
    least-recently-used entry; [find] promotes.  Hits, misses,
    evictions, promotions and demotions are counted once, in the
    [stats] record the daemon's [stats] and [metrics] verbs report. *)

type t

(** [create ~capacity ?store ()] holds up to [capacity] plans
    ([capacity] is clamped to at least 1).  With [store], the in-memory
    LRU becomes the first tier over a persistent {!Plan_store}: misses
    fall through to disk (a hit there is {e promoted} into memory), and
    every [add] writes through (a {e demotion} in tiering parlance — the
    plan now also lives in the bigger, slower tier and survives
    restarts). *)
val create : capacity:int -> ?store:Plan_store.t -> unit -> t

(** The persistent tier, when configured. *)
val store : t -> Plan_store.t option

(** Which tier answered a [find]. *)
type tier = Memory | Store

(** [find_tier t digest] is the cached outcome and the tier that held
    it.  A [Memory] hit promotes within the LRU; a [Store] hit
    additionally promotes the plan into the memory tier.  Counts a
    memory hit, or a memory miss followed by the store's own
    hit/miss. *)
val find_tier : t -> string -> (string * tier) option

(** [find t digest] is [find_tier] without the tier. *)
val find : t -> string -> string option

(** [add t digest outcome] inserts or refreshes, evicting the LRU entry
    at capacity; with a store configured the plan is also persisted
    (write-through). *)
val add : t -> string -> string -> unit

type stats = {
  hits : int;  (** memory-tier hits *)
  misses : int;  (** memory-tier misses (a store hit still counts one) *)
  evictions : int;
  promotions : int;  (** store hits copied up into the memory tier *)
  demotions : int;  (** write-throughs persisted to the store tier *)
  length : int;
  capacity : int;
}

(** A snapshot taken under the cache lock. *)
val stats : t -> stats

(** [hit_rate s] is hits / (hits + misses), or 0 before any lookup. *)
val hit_rate : stats -> float

(** The persistent tier's own counters, when configured. *)
val store_stats : t -> Plan_store.stats option
