(** Hierarchical timed spans.

    A span measures one dynamic extent — a solver phase, a simplex
    solve, a router flush — with a start and duration on the monotonic
    {!Clock}, the id of the domain that ran it, and the stack of
    enclosing span names (its path), so exports can reconstruct the
    call tree even across [Domain_pool] fan-out.

    Tracing is off by default and every probe is a no-op sink behind a
    single atomic-flag check, so instrumented code paths stay
    byte-identical in behaviour and effectively free when disabled.
    Span stacks are domain-local; finished spans go to one shared
    {!Sink}. *)

(** One finished span.  [ts] and [dur] are seconds on the trace clock
    ([ts] counts from the clock's arbitrary origin; subtract [epoch] for
    trace-relative time); [path] is the enclosing span names
    root-first, ending in [name]; [tid] is the integer id of the domain
    that ran the span. *)
type event = {
  name : string;
  cat : string;  (** coarse subsystem tag, e.g. ["lp"], ["synth"] *)
  ts : float;
  dur : float;
  tid : int;
  path : string list;
  args : (string * string) list;  (** free-form key/value annotations *)
  minor_words : float;
      (** words allocated on the recording domain's minor heap during
          the span (child spans included), from [Gc.minor_words]
          deltas, which count that domain's allocations only *)
  major_words : float;
      (** ditto for the major heap, from [Gc.counters] deltas *)
}

(** Whether spans are being recorded. *)
val enabled : unit -> bool

(** Turn recording on or off.  Enabling stamps a fresh [epoch]; neither
    direction clears previously recorded events (use [reset]). *)
val set_enabled : bool -> unit

(** Trace-clock time at which recording was last enabled; Chrome-trace
    timestamps are reported relative to this. *)
val epoch : unit -> float

(** [with_span name f] runs [f ()]; when enabled, records a span
    covering its execution.  The span is recorded (and the stack
    unwound) even if [f] raises.  [cat] defaults to [""]. *)
val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Finished spans in completion order (children before their parent).
    Worker-domain spans appear with their own [tid]. *)
val events : unit -> event list

(** Number of recorded events. *)
val num_events : unit -> int

(** Events dropped because the buffer cap (1,000,000 spans) was hit. *)
val dropped : unit -> int

(** Discard all recorded events and the drop count. *)
val reset : unit -> unit

(** Replace the clock (default {!Clock.now}, monotonic seconds); for
    deterministic tests. *)
val set_clock : (unit -> float) -> unit
