module Coord = Pdw_geometry.Coord
module Grid = Pdw_geometry.Grid
module Layout = Pdw_biochip.Layout
module Port = Pdw_biochip.Port
module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters

let c_flush_calls = Counters.counter "synth.router.flush_calls"
let c_lb_pruned = Counters.counter "synth.router.pairs_lb_pruned"
let c_covering = Counters.counter "synth.router.covering_searches"

(* Public searches run on the calling domain's flat-array arena; see
   [Search_kernel] for the path-identity guarantee. *)

let shortest layout ?avoid ~src ~dst () =
  Search_kernel.shortest (Search_kernel.for_layout layout) ?avoid ~src ~dst ()

let cheapest layout ?avoid ~cost ~src ~dst () =
  Search_kernel.cheapest
    (Search_kernel.for_layout layout)
    ?avoid ~cost ~src ~dst ()

let covering layout ?avoid ?cost ~src ~dst ~targets () =
  Search_kernel.covering
    (Search_kernel.for_layout layout)
    ?avoid ?cost ~src ~dst ~targets ()

(* --- flush ----------------------------------------------------------- *)

(* The covering chain from a flow port does not depend on the waste
   port it ends at, as long as that port is not itself a target: the
   chain's work list drops only the source and the destination, its
   legs exempt only their own targets, and a port cell is never
   expanded, so no leg can pass through a waste port.  Only the final
   leg differs, and one multi-goal settle from the chain's end gives
   each waste port exactly the distance and path its own search would
   (see [Search_kernel.covering_run]).  So each flow port runs one
   chain for all its non-target waste ports, plus one chain per waste
   port that is a target, with that port left out of the work list. *)
let flush layout ?(avoid = Coord.Set.empty) ?cost ~targets () =
  Counters.incr c_flush_calls;
  Trace.with_span ~cat:"synth" "router.flush" @@ fun () ->
  let flow = Array.of_list (Layout.flow_ports layout) in
  let waste = Array.of_list (Layout.waste_ports layout) in
  let nw = Array.length waste in
  let stride = max 1 (Array.length flow * nw) in
  let arena = Search_kernel.for_layout layout in
  Search_kernel.prepare arena ~avoid ~cost ~targets ();
  let cell (p : Port.t) = Search_kernel.idx_of_coord arena p.Port.position in
  let target_idx =
    List.map (Search_kernel.idx_of_coord arena) (Coord.Set.elements targets)
  in
  (* Pair [fi * nw + wi] follows the original evaluation order (flow
     ports outer, waste ports inner): the earliest pair among equal-cost
     paths must keep winning.  The incumbent is the packed pair
     [cost * stride + index], so comparisons order by cost first and
     pair index second. *)
  (* Exact lower bound on a pair's covering-path cost, packed like the
     incumbent: every cell costs at least 1, any covering path visits
     src, every target and dst, and [Layout.port_distances] is the true
     grid distance over routable cells — so [1 + max(d_src dst, max_t
     (d_src t + d_dst t))] lower-bounds the cell count and hence the
     cost.  [max_int] means some target (or dst) is unreachable even
     ignoring the through-routability constraint, so the pair can never
     cover. *)
  let bound fi wi =
    let d_src = Layout.port_distances layout flow.(fi).Port.id in
    let d_dst = Layout.port_distances layout waste.(wi).Port.id in
    let b =
      List.fold_left
        (fun acc t ->
          if acc = max_int || d_src.(t) = max_int || d_dst.(t) = max_int then
            max_int
          else max acc (d_src.(t) + d_dst.(t)))
        d_src.(cell waste.(wi)) target_idx
    in
    if b = max_int then max_int else ((1 + b) * stride) + (fi * nw) + wi
  in
  let bounds =
    Array.init (Array.length flow) (fun fi -> Array.init nw (bound fi))
  in
  (* Most promising flow ports first, so the incumbent tightens early
     and prunes the rest.  A pair is pruned only when even its bound
     packs above the incumbent, i.e. when it cannot possibly win, so
     the winner does not depend on the order. *)
  let order =
    List.init (Array.length flow) (fun fi ->
        (Array.fold_left min max_int bounds.(fi), fi))
    |> List.sort compare |> List.map snd
  in
  let incumbent = ref max_int in
  let best = ref None in
  (* The largest total that still wins for pair index [i]; the
     incumbent packs a cost of at least 1, so it exceeds [i]. *)
  let budget i =
    if !incumbent = max_int then max_int else (!incumbent - 1 - i) / stride
  in
  (* One chain from flow port [fi], settled at the waste ports [ws]
     (ascending, non-empty); [skip] is left out of the work list. *)
  let run fi ~skip ws =
    let ws = Array.of_list ws in
    let goals = Array.map (fun wi -> cell waste.(wi)) ws in
    let first = (fi * nw) + ws.(0) in
    let settled = ref 0 in
    let winner = ref (-1) in
    let on_goal g total =
      incr settled;
      let k = ref 0 in
      while goals.(!k) <> g do incr k done;
      let packed = (total * stride) + (fi * nw) + ws.(!k) in
      if packed < !incumbent then begin
        incumbent := packed;
        winner := ws.(!k)
      end;
      budget first
    in
    let outcome =
      Search_kernel.covering_run arena ~src:(cell flow.(fi)) ~skip ~goals
        ~budget:(budget first) ~on_goal
    in
    let unsettled = Array.length ws - !settled in
    Counters.add c_covering !settled;
    (match outcome with
    | Search_kernel.Over_budget -> Counters.add c_lb_pruned unsettled
    | Search_kernel.Settled | Search_kernel.Unreachable ->
      Counters.add c_covering unsettled);
    (* Only a chain that improved the incumbent materializes a path. *)
    if !winner >= 0 then
      best :=
        Some
          ( Search_kernel.path_to arena (cell waste.(!winner)),
            flow.(fi).Port.id,
            waste.(!winner).Port.id )
  in
  let live fi wi =
    let ok = bounds.(fi).(wi) < !incumbent in
    if not ok then Counters.incr c_lb_pruned;
    ok
  in
  List.iter
    (fun fi ->
      let ws = List.filter (live fi) (List.init nw Fun.id) in
      let own, shared =
        List.partition
          (fun wi -> Coord.Set.mem waste.(wi).Port.position targets)
          ws
      in
      if shared <> [] then run fi ~skip:(-1) shared;
      List.iter
        (fun wi -> if live fi wi then run fi ~skip:(cell waste.(wi)) [ wi ])
        own)
    order;
  !best

let reachable layout ~src =
  let seen = Coord.Table.create 64 in
  let queue = Queue.create () in
  if Layout.routable layout src then begin
    Coord.Table.replace seen src ();
    Queue.add src queue
  end;
  while not (Queue.is_empty queue) do
    let here = Queue.pop queue in
    let expandable =
      Coord.equal here src || Layout.through_routable layout here
    in
    if expandable then
      List.iter
        (fun next ->
          if Layout.routable layout next && not (Coord.Table.mem seen next)
          then begin
            Coord.Table.replace seen next ();
            Queue.add next queue
          end)
        (Grid.neighbours (Layout.grid layout) here)
  done;
  Coord.Table.fold (fun c () acc -> Coord.Set.add c acc) seen Coord.Set.empty
