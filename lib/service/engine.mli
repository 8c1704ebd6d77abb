(** The planning pipeline, one stage per function: resolve and
    synthesize, optimize, export.  The daemon's workers run it through
    {!plan_timed}; every planner subcommand of [pdw] calls the same
    three stages, so a served plan is byte-identical to the one-shot
    CLI on the same spec because there is only one pipeline.  Every
    request synthesizes fresh; repeat-request speed comes from the plan
    cache above, not from sharing mutable synthesis state between
    workers. *)

(** [synthesize spec] resolves the spec's source — a benchmark by name
    ({!Pdw_assay.Benchmarks.find}, case-insensitive) or an inline
    assay text — marks its parked operations, and synthesizes the
    chip: the motivating example on the paper's hand-built Fig. 2(a)
    layout, everything else on a freshly synthesized one.  [Error] is a
    user-facing message: an unknown benchmark (naming every benchmark
    {!Pdw_assay.Benchmarks.named} lists), an assay parse failure, or a
    rejected park set. *)
val synthesize : Protocol.spec -> (Pdw_synth.Synthesis.t, string) result

(** [optimize spec s] plans washes on [s] with the spec's method: PDW
    under the spec's config, or the DAWO baseline. *)
val optimize :
  Protocol.spec -> Pdw_synth.Synthesis.t -> Pdw_wash.Wash_plan.outcome

(** [export outcome] is the outcome JSON text [pdw run --json] prints
    and a [Plan] reply carries ({!Pdw_wash.Json_export}). *)
val export : Pdw_wash.Wash_plan.outcome -> string

(** [plan spec] is the three stages in a row: the outcome JSON text, or
    the user-facing error of {!synthesize}.  Never raises for bad
    input; a planner exception propagates to the caller (the server
    answers it with an error reply at once — the planner is
    deterministic, so retrying would only repeat it). *)
val plan : Protocol.spec -> (string, string) result

(** [plan] plus the request's own stage timings — monotonic wall
    milliseconds of the same spans [Trace] aggregates
    (["service.plan"] around ["service.synthesize"] and
    ["service.optimize"]), as [(stage, ms)] in execution order
    (["synthesize"], then ["optimize"] unless synthesis failed).  The
    server threads these into its per-request [Reqtrace] records. *)
val plan_timed :
  Protocol.spec -> (string, string) result * (string * float) list
