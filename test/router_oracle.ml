(* The original table-and-set searches of the router, kept as the
   oracle the [Search_kernel] equivalence tests run against
   (test_kernel.ml).  Everything here is deliberately unchanged from
   the pre-kernel router — except [covering]'s bookkeeping, which
   accumulates cells reversed (one [List.rev] at the end instead of a
   quadratic [@] per segment) and removes swept-up targets cell by cell
   instead of re-filtering the whole remaining set per segment.  Both
   produce identical paths. *)

module Coord = Pdw_geometry.Coord
module Grid = Pdw_geometry.Grid
module Gpath = Pdw_geometry.Gpath
module Layout = Pdw_biochip.Layout

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
