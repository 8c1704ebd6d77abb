(** Reusable flat-array search arena for the routing hot path.

    An arena pre-allocates every per-cell array a grid search needs
    (distance, predecessor, visited / avoided / used marks, a BFS ring
    buffer, a binary heap of packed keys) against one layout's packed
    {!Pdw_biochip.Layout.Routing} table.  Searches reuse the arrays
    without clearing: marks are epoch-stamped, so "reset" is an integer
    increment and steady-state searches allocate nothing beyond the
    final {!Pdw_geometry.Gpath.t}.

    The searches replicate the legacy [Router] implementations cell for
    cell — same neighbour enumeration order, same frontier tie-breaks,
    same strict-improvement relaxation — so the paths (and therefore
    every planner metric downstream) are identical.  The test suite
    keeps the legacy code as the oracle for the equivalence tests.

    There is one chaining loop and one Dijkstra loop: a single
    destination is the one-goal case of {!covering_run}'s final settle,
    and {!cheapest} is a covering search with no targets.

    Arenas are NOT thread-safe.  Use {!for_layout} to obtain the calling
    domain's private arena. *)

type t

(** Fresh arena for [layout]. *)
val create : Pdw_biochip.Layout.t -> t

(** The layout this arena searches. *)
val layout : t -> Pdw_biochip.Layout.t

(** The calling domain's arena for [layout] (domain-local storage,
    rebound when the domain switches to a different layout). *)
val for_layout : Pdw_biochip.Layout.t -> t

(** [shortest t ~src ~dst ()] — BFS shortest path, identical to
    [Router.shortest].  [avoid] cells must not be entered (the
    destination is exempt). *)
val shortest :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [cheapest t ~cost ~src ~dst ()] — Dijkstra minimum-cost path where
    entering cell [c] costs [1 + cost c], identical to
    [Router.cheapest].  Unlike the legacy implementation, [cost] is
    evaluated once per grid cell per call (not per relaxation); it must
    be non-negative on every cell.
    @raise Invalid_argument on a negative cost. *)
val cheapest :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [covering t ~src ~dst ~targets ()] — greedy nearest-target covering
    path, identical to [Router.covering]: {!covering_run} with the one
    goal [dst]. *)
val covering :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  ?cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** {2 Prepared mode}

    The router's flush evaluates every (flow port, waste port) pair
    against one fixed (avoid, cost, targets) configuration.  [prepare]
    stamps that configuration into the arena once per flush. *)

(** Stamp [avoid], the cost table ([None] = unit costs) and the target
    set into the arena. *)
val prepare :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  cost:(Pdw_geometry.Coord.t -> int) option ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  unit

(** How a {!covering_run} ended: every goal settled; a leg or the final
    settle ran out of cells first (the unsettled goals have no covering
    path); or the budget cut it (no unsettled goal's path costs the
    budget or less). *)
type outcome = Settled | Unreachable | Over_budget

(** [covering_run t ~src ~skip ~goals ~budget ~on_goal] — the covering
    search over the prepared configuration, on row-major cell indices,
    from [src] to each of [goals] at once.

    A greedy chain runs from [src] through every prepared target except
    [src] and [skip]; the chain does not depend on the goals.  One
    Dijkstra from the chain's end then settles the goals in (cost, cell)
    order and calls [on_goal g total] for each, where [total] is the
    cost (sum of [1 + cost c] over every cell, source included) of the
    path to [g]; it is the total a search for [g] alone returns, as long
    as [g] is [skip] or not a target.  [on_goal] returns the new budget,
    which may only shrink.

    [budget] ([max_int] for none) is the largest total the caller still
    wants.  Each leg is capped at the budget minus the cost so far minus
    the manhattan distance from its target to the nearest goal; after
    each leg the chain is dropped when the cost so far plus
    [max_r (manhattan here r + manhattan r (nearest goal))] over the
    remaining targets [r] exceeds it; the final settle stops at it.
    Every cell costs at least 1, so a goal the budget leaves unsettled
    would have cost more than the budget.

    Losing goals allocate nothing; {!path_to} materializes one. *)
val covering_run :
  t ->
  src:int ->
  skip:int ->
  goals:int array ->
  budget:int ->
  on_goal:(int -> int -> int) ->
  outcome

(** [path_to t g] — the path of the last {!covering_run} to the goal
    [g], which must have settled. *)
val path_to : t -> int -> Pdw_geometry.Gpath.t

(** Row-major index of a coordinate in this arena's grid. *)
val idx_of_coord : t -> Pdw_geometry.Coord.t -> int
