module Coord = Pdw_geometry.Coord
module Grid = Pdw_geometry.Grid
module Gpath = Pdw_geometry.Gpath
module Layout = Pdw_biochip.Layout
module Port = Pdw_biochip.Port
module Pool = Pdw_pool.Domain_pool
module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters

let c_flush_calls = Counters.counter "synth.router.flush_calls"
let c_lb_pruned = Counters.counter "synth.router.pairs_lb_pruned"
let c_covering = Counters.counter "synth.router.covering_searches"

(* The original table-and-set searches, kept as the oracle the
   [Search_kernel] equivalence tests run against.  Everything here is
   deliberately unchanged from the pre-kernel router — except
   [covering]'s bookkeeping, which now accumulates cells reversed
   (one [List.rev] at the end instead of a quadratic [@] per segment)
   and removes swept-up targets cell by cell instead of re-filtering
   the whole remaining set per segment.  Both produce identical
   paths. *)
module Reference = struct
  (* BFS from [src] to [dst].  Intermediate cells must be
     through-routable (no ports) and outside [avoid]; [dst] only needs
     to be routable. *)
  let shortest layout ?(avoid = Coord.Set.empty) ~src ~dst () =
    if Coord.equal src dst then
      if Layout.routable layout src then Some (Gpath.of_cells [ src ])
      else None
    else if not (Layout.routable layout src && Layout.routable layout dst)
    then None
    else begin
      let prev = Coord.Table.create 64 in
      let queue = Queue.create () in
      Coord.Table.replace prev src src;
      Queue.add src queue;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let here = Queue.pop queue in
        let expandable =
          Coord.equal here src || Layout.through_routable layout here
        in
        if expandable then
          List.iter
            (fun next ->
              if (not !found) && not (Coord.Table.mem prev next) then begin
                let enterable =
                  Layout.routable layout next
                  && ((not (Coord.Set.mem next avoid)) || Coord.equal next dst)
                in
                if enterable then begin
                  Coord.Table.replace prev next here;
                  if Coord.equal next dst then found := true
                  else Queue.add next queue
                end
              end)
            (Grid.neighbours (Layout.grid layout) here)
      done;
      if not !found then None
      else begin
        let rec walk acc c =
          if Coord.equal c src then c :: acc
          else walk (c :: acc) (Coord.Table.find prev c)
        in
        Some (Gpath.of_cells (walk [] dst))
      end
    end

  module Frontier = Set.Make (struct
    type t = int * Coord.t

    let compare (da, ca) (db, cb) =
      let c = Int.compare da db in
      if c <> 0 then c else Coord.compare ca cb
  end)

  let cheapest layout ?(avoid = Coord.Set.empty) ~cost ~src ~dst () =
    if Coord.equal src dst then
      if Layout.routable layout src then Some (Gpath.of_cells [ src ])
      else None
    else if not (Layout.routable layout src && Layout.routable layout dst)
    then None
    else begin
      let dist = Coord.Table.create 64 in
      let prev = Coord.Table.create 64 in
      Coord.Table.replace dist src 0;
      let frontier = ref (Frontier.singleton (0, src)) in
      let finished = ref false in
      while (not !finished) && not (Frontier.is_empty !frontier) do
        let ((d, here) as node) = Frontier.min_elt !frontier in
        frontier := Frontier.remove node !frontier;
        if Coord.equal here dst then finished := true
        else if Coord.Table.find dist here = d then begin
          let expandable =
            Coord.equal here src || Layout.through_routable layout here
          in
          if expandable then
            List.iter
              (fun next ->
                let enterable =
                  Layout.routable layout next
                  && ((not (Coord.Set.mem next avoid)) || Coord.equal next dst)
                in
                if enterable then begin
                  let step = 1 + cost next in
                  if step < 1 then
                    invalid_arg "Router.cheapest: negative cell cost";
                  let nd = d + step in
                  let better =
                    match Coord.Table.find_opt dist next with
                    | Some old -> nd < old
                    | None -> true
                  in
                  if better then begin
                    Coord.Table.replace dist next nd;
                    Coord.Table.replace prev next here;
                    frontier := Frontier.add (nd, next) !frontier
                  end
                end)
              (Grid.neighbours (Layout.grid layout) here)
        end
      done;
      if not !finished then None
      else begin
        let rec walk acc c =
          if Coord.equal c src then c :: acc
          else walk (c :: acc) (Coord.Table.find prev c)
        in
        Some (Gpath.of_cells (walk [] dst))
      end
    end

  let covering layout ?(avoid = Coord.Set.empty) ?(cost = fun _ -> 0) ~src
      ~dst ~targets () =
    let remaining = Coord.Set.remove src (Coord.Set.remove dst targets) in
    (* Chain segments greedily through the nearest remaining target,
       keeping already-used cells off-limits so the concatenation stays
       a simple path.  Cells accumulate reversed; one [List.rev] at the
       end. *)
    let rec go rev_cells used here remaining =
      if Coord.Set.is_empty remaining then
        let avoid_final =
          Coord.Set.union avoid (Coord.Set.remove here used)
        in
        match cheapest layout ~avoid:avoid_final ~cost ~src:here ~dst () with
        | None -> None
        | Some seg ->
          let rev_cells =
            List.fold_left
              (fun acc c -> c :: acc)
              rev_cells
              (List.tl (Gpath.cells seg))
          in
          Some (Gpath.of_cells (List.rev rev_cells))
      else begin
        (* Nearest target by manhattan distance as the greedy choice. *)
        let next_target =
          Coord.Set.fold
            (fun c best ->
              match best with
              | None -> Some c
              | Some b ->
                if Coord.manhattan here c < Coord.manhattan here b then
                  Some c
                else best)
            remaining None
        in
        match next_target with
        | None -> assert false
        | Some target -> (
          let avoid_seg =
            Coord.Set.union avoid (Coord.Set.remove here used)
          in
          match
            cheapest layout ~avoid:avoid_seg ~cost ~src:here ~dst:target ()
          with
          | None -> None
          | Some seg ->
            let seg_cells = List.tl (Gpath.cells seg) in
            let used =
              List.fold_left (fun s c -> Coord.Set.add c s) used seg_cells
            in
            let remaining =
              List.fold_left
                (fun r c -> Coord.Set.remove c r)
                remaining seg_cells
            in
            go
              (List.fold_left (fun acc c -> c :: acc) rev_cells seg_cells)
              used target remaining)
      end
    in
    go [ src ] (Coord.Set.singleton src) src remaining
end

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

(* --- parallel port-pair flush ------------------------------------- *)

(* Worker-domain pool for evaluating a flush's surviving port pairs in
   parallel.  Built lazily at the configured size; a size of 1 keeps
   everything on the calling domain. *)

let flush_domains_override = Atomic.make 0

let set_flush_domains n =
  Atomic.set flush_domains_override (max 1 n)

let flush_domains () =
  match Atomic.get flush_domains_override with
  | 0 -> max 1 (min 4 (Domain.recommended_domain_count ()))
  | n -> n

let pool_state : (int * Pool.t) option ref = ref None
let pool_lock = Mutex.create ()

(* Worker domains must be joined before the main domain exits. *)
let () =
  at_exit (fun () ->
      Mutex.lock pool_lock;
      (match !pool_state with
      | Some (_, p) -> ( try Pool.shutdown p with _ -> ())
      | None -> ());
      pool_state := None;
      Mutex.unlock pool_lock)

let flush_pool () =
  let want = flush_domains () in
  if want <= 1 then None
  else begin
    Mutex.lock pool_lock;
    let pool =
      match !pool_state with
      | Some (sz, p) when sz = want -> p
      | prev ->
        (match prev with Some (_, p) -> Pool.shutdown p | None -> ());
        let p = Pool.create ~size:want () in
        pool_state := Some (want, p);
        p
    in
    Mutex.unlock pool_lock;
    Some pool
  end

(* Tokens let each worker arena recognise pairs from the same flush
   call and skip re-stamping the (avoid, cost, targets) configuration;
   see [Search_kernel.prepare]. *)
let flush_token = Atomic.make 0

let flush layout ?(avoid = Coord.Set.empty) ?cost ~targets () =
  Counters.incr c_flush_calls;
  Trace.with_span ~cat:"synth" "router.flush" @@ fun () ->
  let flow_ports = Layout.flow_ports layout in
  let waste_ports = Layout.waste_ports layout in
  let arena = Search_kernel.for_layout layout in
  let target_idx =
    List.map (Search_kernel.idx_of_coord arena) (Coord.Set.elements targets)
  in
  (* Pair indices follow the legacy evaluation order (flow ports outer,
     waste ports inner): the earliest pair among equal-cost paths must
     keep winning. *)
  let pairs =
    List.concat_map
      (fun fp -> List.map (fun wp -> (fp, wp)) waste_ports)
      flow_ports
  in
  let stride = max 1 (List.length pairs) in
  (* Exact lower bound on a pair's covering-path cost: every cell costs
     at least 1, any covering path visits src, every target and dst, and
     [Layout.port_distances] is the true grid distance over routable
     cells — so [1 + max(d_src dst, max_t (d_src t + d_t dst))]
     lower-bounds the cell count and hence the cost.  [max_int] means
     some target (or dst) is unreachable even ignoring the
     through-routability constraint, so the pair can never cover. *)
  let bound fp wp =
    let d_src = Layout.port_distances layout fp.Port.id in
    let d_dst = Layout.port_distances layout wp.Port.id in
    let dst_i = Search_kernel.idx_of_coord arena wp.Port.position in
    List.fold_left
      (fun acc t ->
        if acc = max_int || d_src.(t) = max_int || d_dst.(t) = max_int then
          max_int
        else max acc (d_src.(t) + d_dst.(t)))
      d_src.(dst_i) target_idx
  in
  let scored =
    List.mapi (fun idx (fp, wp) -> (idx, fp, wp, bound fp wp)) pairs
    |> List.filter_map (fun (idx, fp, wp, b) ->
           if b = max_int then begin
             Counters.incr c_lb_pruned;
             None
           end
           else Some (idx, fp, wp, 1 + b))
  in
  (* Most promising pairs first, so the incumbent tightens early and
     prunes the rest; the winner is order-independent (see below). *)
  let scored =
    List.sort
      (fun (ia, _, _, la) (ib, _, _, lb) ->
        let c = Int.compare la lb in
        if c <> 0 then c else Int.compare ia ib)
      scored
  in
  (* The incumbent is the packed pair [cost * stride + idx], so
     comparisons order by cost first and original pair index second —
     exactly the sequential "first strictly-cheaper pair wins" rule.  A
     pair is pruned only when even its bound packs above the incumbent,
     i.e. when it cannot possibly win; that decision is monotone in the
     (only-decreasing) incumbent, so the final winner is independent of
     evaluation order and domain scheduling. *)
  let incumbent = Atomic.make max_int in
  let best_slot = ref None in
  let best_lock = Mutex.create () in
  let token = 1 + Atomic.fetch_and_add flush_token 1 in
  let eval (idx, fp, wp, lb) =
    if (lb * stride) + idx > Atomic.get incumbent then
      Counters.incr c_lb_pruned
    else begin
      Counters.incr c_covering;
      let a = Search_kernel.for_layout layout in
      Search_kernel.prepare a ~token ~avoid ~cost ~targets ();
      let src = Search_kernel.idx_of_coord a fp.Port.position in
      let dst = Search_kernel.idx_of_coord a wp.Port.position in
      match Search_kernel.covering_run a ~src ~dst with
      | None -> ()
      | Some total ->
        let packed = (total * stride) + idx in
        let rec improve () =
          let cur = Atomic.get incumbent in
          if packed < cur then
            if Atomic.compare_and_set incumbent cur packed then true
            else improve ()
          else false
        in
        if improve () then begin
          (* Only improving pairs materialize their path. *)
          let path = Search_kernel.path_of_buf a in
          Mutex.lock best_lock;
          (match !best_slot with
          | Some (bp, _, _, _) when bp <= packed -> ()
          | _ -> best_slot := Some (packed, path, fp.Port.id, wp.Port.id));
          Mutex.unlock best_lock
        end
    end
  in
  (match flush_pool () with
  | Some pool when List.length scored > 1 ->
    ignore (Pool.map pool eval scored)
  | _ -> List.iter eval scored);
  Option.map (fun (_, p, f, w) -> (p, f, w)) !best_slot

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
