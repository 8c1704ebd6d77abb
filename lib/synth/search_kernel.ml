module Coord = Pdw_geometry.Coord
module Grid = Pdw_geometry.Grid
module Gpath = Pdw_geometry.Gpath
module Layout = Pdw_biochip.Layout
module Routing = Pdw_biochip.Layout.Routing

(* A reusable flat-array search arena over one layout's grid.

   Every per-cell datum lives in an [int array] indexed by the cell's
   row-major grid index, and "clearing" between searches is an epoch
   bump: a mark is valid only when its stamp equals the current epoch,
   so back-to-back searches share the arrays with zero allocation and
   zero clearing.  The BFS frontier is a ring buffer (each cell enters
   at most once, so capacity [ncells] suffices); the Dijkstra frontier
   is a monomorphic binary min-heap of packed [dist * ncells + colmajor]
   keys.

   Path identity with the legacy table-and-set searches (kept as the
   test oracle) is a hard requirement (the planner's metrics must stay
   byte-identical), so three orders are replicated exactly:
   - neighbour enumeration follows [Direction.all] (north, south, west,
     east), the order baked into [Layout.Routing.nbr];
   - the Dijkstra pop order is (dist, Coord.compare) — [Coord.compare]
     is x-then-y, i.e. the COLUMN-major cell index, hence the
     [colmajor] component of the heap key;
   - a cell's predecessor is only rewritten on a strict distance
     improvement, as in the legacy tables.

   Arenas are not thread-safe; use [for_layout] to get the calling
   domain's private arena. *)

type t = {
  layout : Layout.t;
  rt : Routing.t;
  dist : int array;
  prev : int array;
  visit : int array;  (* visit.(i) = epoch -> dist/prev valid *)
  avoid_mark : int array;  (* caller's avoid set, valid per avoid_epoch *)
  used_mark : int array;  (* covering chain's used cells *)
  goal_mark : int array;  (* the running search's goals, per goal_epoch *)
  costs : int array;  (* 1 + cost of entering each cell *)
  queue : int array;  (* BFS ring buffer; scratch stack elsewhere *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable origin : int;  (* the running Dijkstra's source *)
  buf : int array;  (* result path cells, in order *)
  mutable buf_len : int;
  mutable chain_len : int;  (* cells of the last chain, a prefix of buf *)
  mutable here : int;  (* where the last chain ended *)
  targets_idx : int array;  (* prepared targets, Coord.compare order *)
  mutable targets_len : int;
  remaining : int array;  (* covering work list *)
  mutable epoch : int;
  mutable avoid_epoch : int;
  mutable used_epoch : int;
  mutable goal_epoch : int;
}

let create layout =
  let rt = Layout.routing layout in
  let n = rt.Routing.ncells in
  {
    layout;
    rt;
    dist = Array.make n 0;
    prev = Array.make n 0;
    visit = Array.make n 0;
    avoid_mark = Array.make n 0;
    used_mark = Array.make n 0;
    goal_mark = Array.make n 0;
    costs = Array.make n 1;
    queue = Array.make n 0;
    heap = Array.make ((4 * n) + 8) 0;
    heap_size = 0;
    origin = 0;
    buf = Array.make n 0;
    buf_len = 0;
    chain_len = 0;
    here = 0;
    targets_idx = Array.make n 0;
    targets_len = 0;
    remaining = Array.make n 0;
    epoch = 0;
    avoid_epoch = 0;
    used_epoch = 0;
    goal_epoch = 0;
  }

let layout t = t.layout

(* One arena per domain, rebound when the domain switches layouts: the
   planner works one layout at a time, so steady-state searches never
   allocate arena storage. *)
let dls_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let for_layout layout =
  let slot = Domain.DLS.get dls_key in
  match !slot with
  | Some a when a.layout == layout -> a
  | _ ->
    let a = create layout in
    slot := Some a;
    a

(* --- index helpers ------------------------------------------------ *)

let idx_of_coord t (c : Coord.t) = Grid.index (Layout.grid t.layout) c
let coord_of_idx t i = Coord.make (i mod t.rt.Routing.width) (i / t.rt.Routing.width)

let routable t i = Bytes.unsafe_get t.rt.Routing.routable i = '\001'
let through t i = Bytes.unsafe_get t.rt.Routing.through i = '\001'

(* Column-major index: orders cells exactly as [Coord.compare]. *)
let colmajor t i =
  ((i mod t.rt.Routing.width) * t.rt.Routing.height) + (i / t.rt.Routing.width)

let manhattan_idx t a b =
  let w = t.rt.Routing.width in
  abs ((a mod w) - (b mod w)) + abs ((a / w) - (b / w))

(* --- search state preparation ------------------------------------- *)

let set_costs t cost =
  for i = 0 to t.rt.Routing.ncells - 1 do
    let step = 1 + cost (coord_of_idx t i) in
    if step < 1 then invalid_arg "Router.cheapest: negative cell cost";
    t.costs.(i) <- step
  done

let set_unit_costs t = Array.fill t.costs 0 (Array.length t.costs) 1

let in_bounds t c = Grid.in_bounds (Layout.grid t.layout) c

let set_avoid t avoid =
  t.avoid_epoch <- t.avoid_epoch + 1;
  (* Out-of-bounds avoid cells cannot affect a search; skip them. *)
  Coord.Set.iter
    (fun c ->
      if in_bounds t c then t.avoid_mark.(idx_of_coord t c) <- t.avoid_epoch)
    avoid

let set_targets t targets =
  t.targets_len <- 0;
  (* [Coord.Set.elements] is ascending [Coord.compare] order — the order
     the legacy greedy target scan folds in. *)
  List.iter
    (fun c ->
      t.targets_idx.(t.targets_len) <- idx_of_coord t c;
      t.targets_len <- t.targets_len + 1)
    (Coord.Set.elements targets)

let prepare t ?(avoid = Coord.Set.empty) ~cost ~targets () =
  set_avoid t avoid;
  (match cost with None -> set_unit_costs t | Some f -> set_costs t f);
  set_targets t targets

(* --- heap of packed (dist, colmajor) keys ------------------------- *)

let heap_push t key =
  let n = Array.length t.heap in
  if t.heap_size = n then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit t.heap 0 grown 0 n;
    t.heap <- grown
  end;
  let heap = t.heap in
  let i = ref t.heap_size in
  t.heap_size <- t.heap_size + 1;
  heap.(!i) <- key;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap.(!i) < heap.(parent) then begin
      let tmp = heap.(!i) in
      heap.(!i) <- heap.(parent);
      heap.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop t =
  let heap = t.heap in
  let top = heap.(0) in
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    heap.(0) <- heap.(t.heap_size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.heap_size && heap.(l) < heap.(!smallest) then smallest := l;
      if r < t.heap_size && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = heap.(!i) in
        heap.(!i) <- heap.(!smallest);
        heap.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

(* --- core searches ------------------------------------------------ *)

(* Both searches honour the avoid discipline of the legacy router: a
   cell is enterable when routable and neither avoided nor used, except
   a goal, which is always exempt; a cell is expandable when it is the
   source or through-routable. *)

let is_goal t i = t.goal_mark.(i) = t.goal_epoch

let enterable t next =
  routable t next
  && ((t.avoid_mark.(next) <> t.avoid_epoch && t.used_mark.(next) <> t.used_epoch)
     || is_goal t next)

(* BFS; [true] when [dst] was reached (prev chain valid). *)
let bfs t ~src ~dst =
  if not (routable t src && routable t dst) then false
  else if src = dst then true
  else begin
    t.epoch <- t.epoch + 1;
    t.goal_epoch <- t.goal_epoch + 1;
    t.goal_mark.(dst) <- t.goal_epoch;
    let e = t.epoch in
    t.visit.(src) <- e;
    t.prev.(src) <- src;
    let queue = t.queue in
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    while (not !found) && !head < !tail do
      let here = queue.(!head) in
      incr head;
      if here = src || through t here then begin
        let base = 4 * here in
        for k = base to base + 3 do
          let next = t.rt.Routing.nbr.(k) in
          if
            (not !found)
            && next >= 0
            && t.visit.(next) <> e
            && enterable t next
          then begin
            t.visit.(next) <- e;
            t.prev.(next) <- here;
            if next = dst then found := true
            else begin
              queue.(!tail) <- next;
              incr tail
            end
          end
        done
      end
    done;
    !found
  end

(* The one Dijkstra loop, over [t.costs], resumable goal by goal.
   [dijkstra_start] marks no goals: the caller marks them first (a
   fresh [goal_epoch], then [goal_mark]).  Goals are exempt from the
   avoid and used marks and never expanded, so a goal's distance and
   predecessor are exactly those of a search for that goal alone: the
   other goals only add heap keys that are never expanded.
   [dijkstra_next] pops until the next goal settles and returns it;
   [exhausted] when the frontier empties first, [capped] when the
   cheapest unsettled cell lies beyond [cap].  A settled goal's
   [t.dist] is final: every later key is larger. *)

let exhausted = -1
let capped = -2

let dijkstra_start t ~src =
  t.epoch <- t.epoch + 1;
  t.heap_size <- 0;
  t.origin <- src;
  if routable t src then begin
    t.visit.(src) <- t.epoch;
    t.prev.(src) <- src;
    t.dist.(src) <- 0;
    heap_push t (colmajor t src)
  end

let dijkstra_next t ~cap =
  let e = t.epoch in
  let ncells = t.rt.Routing.ncells in
  let result = ref exhausted in
  let running = ref true in
  while !running && t.heap_size > 0 do
    (* The minimum key bounds every unsettled cell, stale keys
       included. *)
    let key = t.heap.(0) in
    let d = key / ncells in
    if d > cap then begin
      result := capped;
      running := false
    end
    else begin
      ignore (heap_pop t);
      let cm = key mod ncells in
      let here =
        ((cm mod t.rt.Routing.height) * t.rt.Routing.width)
        + (cm / t.rt.Routing.height)
      in
      (* A goal's first key is its least, so it settles exactly once;
         later keys for any cell are stale. *)
      if t.dist.(here) = d then
        if is_goal t here then begin
          result := here;
          running := false
        end
        else if here = t.origin || through t here then begin
          let base = 4 * here in
          for k = base to base + 3 do
            let next = t.rt.Routing.nbr.(k) in
            if next >= 0 && enterable t next then begin
              let nd = d + t.costs.(next) in
              if t.visit.(next) <> e || nd < t.dist.(next) then begin
                t.visit.(next) <- e;
                t.dist.(next) <- nd;
                t.prev.(next) <- here;
                heap_push t ((nd * ncells) + colmajor t next)
              end
            end
          done
        end
    end
  done;
  !result

(* --- path extraction ---------------------------------------------- *)

(* Append the prev-chain cells of the segment [src -> dst] (excluding
   [src]) to [buf] in forward order, stamping each as used.  The BFS
   ring is idle after a search, so it doubles as the reversal stack. *)
let append_segment t ~src ~dst =
  let stack = t.queue in
  let n = ref 0 in
  let c = ref dst in
  while !c <> src do
    stack.(!n) <- !c;
    incr n;
    c := t.prev.(!c)
  done;
  for i = !n - 1 downto 0 do
    let cell = stack.(i) in
    t.buf.(t.buf_len) <- cell;
    t.buf_len <- t.buf_len + 1;
    t.used_mark.(cell) <- t.used_epoch
  done

let path_of_buf t =
  let cells = ref [] in
  for i = t.buf_len - 1 downto 0 do
    cells := coord_of_idx t t.buf.(i) :: !cells
  done;
  Gpath.of_cells !cells

(* --- public single searches --------------------------------------- *)

(* The legacy searches answer [None] for out-of-bounds endpoints (they
   are simply not routable); the wrappers keep that contract before
   converting to indices. *)

let shortest t ?(avoid = Coord.Set.empty) ~src ~dst () =
  if not (in_bounds t src && in_bounds t dst) then None
  else begin
    set_avoid t avoid;
    t.used_epoch <- t.used_epoch + 1;
    let src = idx_of_coord t src and dst = idx_of_coord t dst in
    if not (bfs t ~src ~dst) then None
    else begin
      t.buf_len <- 1;
      t.buf.(0) <- src;
      if src <> dst then append_segment t ~src ~dst;
      Some (path_of_buf t)
    end
  end

(* --- covering ------------------------------------------------------ *)

type outcome = Settled | Unreachable | Over_budget

let nearest_goal t goals c =
  let best = ref max_int in
  for g = 0 to Array.length goals - 1 do
    best := min !best (manhattan_idx t c goals.(g))
  done;
  !best

(* The greedy chain, exactly as the legacy [Router.covering]: the
   next target is the remaining one nearest by manhattan distance (ties
   to the smallest in [Coord.compare] order), each leg is a cheapest
   path that must not revisit cells used by earlier legs, and targets a
   leg sweeps up en passant are dropped from the work list.  Nothing
   here depends on the goals except the budget bounds.

   Every cell costs at least 1, so a path from [a] to [b] costs at
   least [manhattan a b].  Once at a leg's target, the path still has
   to reach some goal: the leg is capped at [budget] minus the cost so
   far minus the manhattan distance from its target to the nearest
   goal.  Targets that remain after the leg are NOT charged to it — the
   leg may sweep them up on its way.  After a leg, each remaining
   target [r] must still be visited before a goal, so the chain is
   dropped when [so far + max_r (manhattan here r + manhattan r goal)]
   exceeds the budget.

   Returns the chain's cost (source included, so at least 1), or
   [exhausted] when a leg has no path, or [capped] when the budget cut
   it.  The chain's cells are left in [buf], its end in [t.here]. *)
let chain t ~src ~skip ~goals ~budget =
  t.used_epoch <- t.used_epoch + 1;
  let remaining = t.remaining in
  let rem_len = ref 0 in
  for i = 0 to t.targets_len - 1 do
    let target = t.targets_idx.(i) in
    if target <> src && target <> skip then begin
      remaining.(!rem_len) <- target;
      incr rem_len
    end
  done;
  t.buf_len <- 1;
  t.buf.(0) <- src;
  t.used_mark.(src) <- t.used_epoch;
  let bounded = budget < max_int in
  let here = ref src in
  let total = ref t.costs.(src) in
  let status = ref 0 in
  while !status = 0 && !rem_len > 0 do
    (* Nearest remaining target; the scan order is ascending
       [Coord.compare], and only a strictly smaller distance replaces
       the incumbent, matching the legacy fold. *)
    let best = ref remaining.(0) in
    let best_d = ref (manhattan_idx t !here remaining.(0)) in
    for i = 1 to !rem_len - 1 do
      let d = manhattan_idx t !here remaining.(i) in
      if d < !best_d then begin
        best := remaining.(i);
        best_d := d
      end
    done;
    let target = !best in
    let cap =
      if bounded then budget - !total - nearest_goal t goals target
      else max_int
    in
    t.goal_epoch <- t.goal_epoch + 1;
    t.goal_mark.(target) <- t.goal_epoch;
    dijkstra_start t ~src:!here;
    let reached = dijkstra_next t ~cap in
    if reached <> target then status := reached
    else begin
      append_segment t ~src:!here ~dst:target;
      total := !total + t.dist.(target);
      here := target;
      (* Drop targets the leg swept up (they are now used), and bound
         what the rest of the path must still cost. *)
      let rest = ref 0 in
      let w = ref 0 in
      for i = 0 to !rem_len - 1 do
        let r = remaining.(i) in
        if t.used_mark.(r) <> t.used_epoch then begin
          remaining.(!w) <- r;
          incr w;
          if bounded then
            rest :=
              max !rest (manhattan_idx t target r + nearest_goal t goals r)
        end
      done;
      rem_len := !w;
      if !total + !rest > budget then status := capped
    end
  done;
  t.here <- !here;
  t.chain_len <- t.buf_len;
  if !status = 0 then !total else !status

let covering_run t ~src ~skip ~goals ~budget ~on_goal =
  let so_far = chain t ~src ~skip ~goals ~budget in
  if so_far = capped then Over_budget
  else if so_far = exhausted then Unreachable
  else begin
    (* The final settle: one search from the chain's end to every
       goal.  [on_goal] may only tighten the budget. *)
    t.goal_epoch <- t.goal_epoch + 1;
    Array.iter (fun g -> t.goal_mark.(g) <- t.goal_epoch) goals;
    dijkstra_start t ~src:t.here;
    let budget = ref budget in
    let left = ref (Array.length goals) in
    let last = ref 0 in
    while !left > 0 && !last >= 0 do
      let cap = if !budget = max_int then max_int else !budget - so_far in
      last := dijkstra_next t ~cap;
      if !last >= 0 then begin
        decr left;
        budget := on_goal !last (so_far + t.dist.(!last))
      end
    done;
    if !left = 0 then Settled
    else if !last = capped then Over_budget
    else Unreachable
  end

let path_to t goal =
  t.buf_len <- t.chain_len;
  append_segment t ~src:t.here ~dst:goal;
  path_of_buf t

let covering t ?avoid ?cost ~src ~dst ~targets () =
  (* An out-of-bounds target (other than the exempt endpoints) can never
     be visited, so the legacy covering inevitably fails on it. *)
  let oob_target =
    Coord.Set.exists
      (fun c -> not (in_bounds t c))
      (Coord.Set.remove src (Coord.Set.remove dst targets))
  in
  if oob_target || not (in_bounds t src && in_bounds t dst) then None
  else begin
    prepare t ?avoid ~cost ~targets ();
    let src = idx_of_coord t src and dst = idx_of_coord t dst in
    match
      covering_run t ~src ~skip:dst ~goals:[| dst |] ~budget:max_int
        ~on_goal:(fun _ _ -> max_int)
    with
    | Settled -> Some (path_to t dst)
    | Unreachable | Over_budget -> None
  end

(* A cheapest path is a covering path with nothing to cover: the chain
   is its source alone, and the final settle is the one search. *)
let cheapest t ?avoid ~cost ~src ~dst () =
  covering t ?avoid ~cost ~src ~dst ~targets:Coord.Set.empty ()
