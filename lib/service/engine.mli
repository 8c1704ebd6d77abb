(** Resolving a service job into the outcome JSON a one-shot run prints.

    [plan] follows exactly the pipeline of [pdw run --json] /
    [pdw optimize-file]: resolve the benchmark (or parse the inline
    assay), synthesize — the motivating example on its hand-built
    Fig. 2 layout, everything else on a fresh synthesized chip — then
    optimize with the requested method and serialize via
    [Json_export.outcome].  Every job synthesizes fresh, so a served
    plan is byte-identical to the single-shot CLI on the same spec;
    repeat-request speed comes from the plan cache above, not from
    sharing mutable synthesis state between workers. *)

(** [synthesize_benchmark name b] is the synthesis every planner entry
    point starts from: the motivating example (by [name],
    case-insensitively) on the paper's hand-built Fig. 2 layout,
    everything else on a freshly synthesized chip.  [pdw run] and the
    other one-shot subcommands call it too. *)
val synthesize_benchmark :
  string -> Pdw_assay.Benchmarks.t -> Pdw_synth.Synthesis.t

(** [plan spec] is the outcome JSON text, or a user-facing error
    (unknown benchmark, assay parse failure).  Never raises for bad
    input; a planner exception propagates to the caller (the server
    answers it with an error reply at once — the planner is
    deterministic, so retrying would only repeat it). *)
val plan : Protocol.spec -> (string, string) result

(** [plan] plus the request's own stage timings — monotonic wall
    milliseconds of the same spans [Trace] aggregates, as
    [(stage, ms)] in execution order (["synthesize"], then
    ["optimize"] unless resolution failed).  The server threads these
    into its per-request [Reqtrace] records. *)
val plan_timed :
  Protocol.spec -> (string, string) result * (string * float) list
