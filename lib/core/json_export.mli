(** JSON export of optimization results, for downstream tooling
    (dashboards, chip drivers, regression tracking), in the shared
    [Pdw_obs.Json] value and printer. *)

type json = Pdw_obs.Json.t

(** [Pdw_obs.Json.to_string]: control characters U+0000–U+001F leave as
    [\uXXXX], objects keep field order, and floats print in the
    shortest form that parses back to the same value, so
    [Pdw_obs.Json.parse (to_string j)] recovers [j] — the property the
    service wire protocol depends on. *)
val to_string : json -> string

val metrics : Metrics.t -> json

(** Every entry with timing, kind, path cells and (for washes) targets. *)
val schedule : Pdw_synth.Schedule.t -> json

(** The full outcome: benchmark stats, metrics, schedule, washes,
    convergence diagnostics. *)
val outcome : Wash_plan.outcome -> json
