(** Maze routing over a chip layout.

    Paths traverse channel and device cells; port cells terminate paths
    (fluid never flows through a port).  BFS guarantees shortest paths,
    which the tests rely on.

    The searches run on the calling domain's reusable flat-array arena
    ({!Search_kernel}); the test suite keeps the original table-and-set
    implementations as the oracle the equivalence tests compare
    against. *)

(** [shortest layout ~src ~dst ()] is a shortest path from [src] to [dst],
    or [None] when unreachable.

    @param avoid cells the path must not touch (besides non-routable ones);
    endpoints are exempt. *)
val shortest :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [cheapest layout ~cost ~src ~dst ()] is a minimum-cost path where
    entering cell [c] costs [1 + cost c] ([cost] must be non-negative).
    Used by synthesis to route transports away from cells already carrying
    other fluids, mimicking the dedicated channels a PathDriver-style
    synthesis tool etches. *)
val cheapest :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [covering layout ~src ~dst ~targets ()] is a simple path from [src] to
    [dst] passing through every target cell, built by greedy
    nearest-target chaining; or [None] when the greedy order fails.  The
    result is feasible but not necessarily minimum; the exact alternative
    is [Pdw_wash.Wash_path_ilp] in the core library. *)
val covering :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  ?cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [flush layout ~targets ()] is the cheapest {!covering} path over all
    (flow port, waste port) pairs: the [flow port -> contaminated spots ->
    waste port] structure every wash/flush path must have (Eq. (12)).
    Equal costs go to the earliest pair (flow ports outer, waste ports
    inner).  Returns the path with the chosen port ids, or [None] when no
    pair can cover the targets.

    It runs on the calling domain.  Each flow port runs one greedy chain
    for all the waste ports that are not targets, then one settle to
    all of them (a waste port that is a target gets a chain of its
    own); flow ports go in order of their best exact pair bound
    ({!Pdw_biochip.Layout.port_distances}), and a chain is cut as soon
    as it cannot beat the best pair so far.  The counter
    [synth.router.covering_searches] counts the pairs whose search ran
    to its end; [synth.router.pairs_lb_pruned] counts the pairs a bound
    cut, before or inside the chain.  Each flush adds up to exactly its
    number of pairs across the two. *)
val flush :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  ?cost:(Pdw_geometry.Coord.t -> int) ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  (Pdw_geometry.Gpath.t * int * int) option

(** Cells reachable from [src] (inclusive) through routable cells;
    port cells are included when adjacent to a reached cell but not
    expanded through. *)
val reachable :
  Pdw_biochip.Layout.t -> src:Pdw_geometry.Coord.t -> Pdw_geometry.Coord.Set.t
