(* Equivalence tests for the flat-array search kernel: on random
   layouts, random endpoints, random avoid sets, random costs and random
   target sets, the kernel-backed [Router.shortest] / [cheapest] /
   [covering] must return exactly the same paths as the original
   table-and-set implementations kept in [Router_oracle] — that
   identity is what keeps every planner metric byte-identical across
   the perf overhaul.  Plus: arena reuse across many searches (the
   epoch trick), and the pruned, chain-sharing flush against a
   brute-force search of every port pair. *)

module Coord = Pdw_geometry.Coord
module Gpath = Pdw_geometry.Gpath
module Device = Pdw_biochip.Device
module Port = Pdw_biochip.Port
module Layout = Pdw_biochip.Layout
module Layout_builder = Pdw_biochip.Layout_builder
module Placement = Pdw_synth.Placement
module Router = Pdw_synth.Router
module Search_kernel = Pdw_synth.Search_kernel

(* --- random-instance plumbing -------------------------------------- *)

(* A fixed pool of structurally different layouts: the hand-built Fig. 2
   chip plus the three generated architectures (street grid, ring bus,
   multi-cell islands) at a couple of sizes. *)
let layout_pool =
  lazy
    [
      Layout_builder.fig2_layout ();
      Placement.layout
        ~device_kinds:[ Device.Mixer; Device.Heater; Device.Detector ]
        ();
      Placement.layout ~flow_ports:2 ~waste_ports:2
        ~device_kinds:
          [ Device.Mixer; Device.Mixer; Device.Filter; Device.Storage;
            Device.Detector; Device.Heater ]
        ();
      Placement.ring_layout
        ~device_kinds:
          [ Device.Mixer; Device.Heater; Device.Detector; Device.Filter ]
        ();
      Placement.island_layout
        ~device_kinds:[ Device.Mixer; Device.Heater; Device.Detector ]
        ();
    ]

let pick_layout st =
  let pool = Lazy.force layout_pool in
  List.nth pool (Random.State.int st (List.length pool))

let routable_cells layout =
  let w = Layout.width layout and h = Layout.height layout in
  let acc = ref [] in
  for y = h - 1 downto 0 do
    for x = w - 1 downto 0 do
      let c = Coord.make x y in
      if Layout.routable layout c then acc := c :: !acc
    done
  done;
  !acc

let pick_cell st cells = List.nth cells (Random.State.int st (List.length cells))

let random_subset st ~denom cells =
  List.fold_left
    (fun s c ->
      if Random.State.int st denom = 0 then Coord.Set.add c s else s)
    Coord.Set.empty cells

(* Deterministic pseudo-random non-negative cell cost. *)
let random_cost st =
  let salt = Random.State.int st 1000 in
  fun (c : Coord.t) -> (Coord.hash c + salt) mod 5

let path_cells = function
  | None -> None
  | Some p -> Some (Gpath.cells p)

let same_path label a b =
  Alcotest.(check (option (list (pair int int))))
    label
    (Option.map (List.map (fun (c : Coord.t) -> (c.Coord.x, c.Coord.y))) a)
    (Option.map (List.map (fun (c : Coord.t) -> (c.Coord.x, c.Coord.y))) b)

let equal_paths a b =
  match (path_cells a, path_cells b) with
  | None, None -> true
  | Some xs, Some ys -> (
    try List.for_all2 Coord.equal xs ys with Invalid_argument _ -> false)
  | _ -> false

(* --- kernel = reference equivalence -------------------------------- *)

let prop_shortest_equiv =
  QCheck2.Test.make ~name:"kernel shortest = reference shortest" ~count:150
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 1 |] in
      let layout = pick_layout st in
      let cells = routable_cells layout in
      let src = pick_cell st cells and dst = pick_cell st cells in
      let avoid = random_subset st ~denom:8 cells in
      equal_paths
        (Router.shortest layout ~avoid ~src ~dst ())
        (Router_oracle.shortest layout ~avoid ~src ~dst ()))

let prop_cheapest_equiv =
  QCheck2.Test.make ~name:"kernel cheapest = reference cheapest" ~count:150
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 2 |] in
      let layout = pick_layout st in
      let cells = routable_cells layout in
      let src = pick_cell st cells and dst = pick_cell st cells in
      let avoid = random_subset st ~denom:10 cells in
      let cost = random_cost st in
      equal_paths
        (Router.cheapest layout ~avoid ~cost ~src ~dst ())
        (Router_oracle.cheapest layout ~avoid ~cost ~src ~dst ()))

(* When a mid-chain segment sweeps through [dst], the final segment
   duplicates it and [Gpath.of_cells] rejects the walk — in the legacy
   implementation and the kernel alike.  Compare outcomes, exception
   included. *)
let covering_outcome f =
  match f () with
  | r -> Ok (path_cells r)
  | exception Invalid_argument m -> Error m

let prop_covering_equiv =
  QCheck2.Test.make ~name:"kernel covering = reference covering" ~count:120
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 3 |] in
      let layout = pick_layout st in
      let cells = routable_cells layout in
      let src = pick_cell st cells and dst = pick_cell st cells in
      let targets = random_subset st ~denom:12 cells in
      let cost = if Random.State.bool st then Some (random_cost st) else None in
      let kernel =
        covering_outcome (fun () ->
            Router.covering layout ?cost ~src ~dst ~targets ())
      in
      let reference =
        covering_outcome (fun () ->
            Router_oracle.covering layout ?cost ~src ~dst ~targets ())
      in
      match (kernel, reference) with
      | Ok a, Ok b -> (
        match (a, b) with
        | None, None -> true
        | Some xs, Some ys -> (
          try List.for_all2 Coord.equal xs ys
          with Invalid_argument _ -> false)
        | _ -> false)
      | Error a, Error b -> a = b
      | _ -> false)

(* --- arena reuse (the epoch trick) --------------------------------- *)

(* One arena serves a long interleaved sequence of searches without any
   clearing between them; a fresh arena must agree with the reused one
   at every step. *)
let test_epoch_reuse () =
  let layout =
    Placement.layout
      ~device_kinds:[ Device.Mixer; Device.Heater; Device.Detector ]
      ()
  in
  let cells = routable_cells layout in
  let reused = Search_kernel.create layout in
  let st = Random.State.make [| 42 |] in
  for i = 1 to 60 do
    let fresh = Search_kernel.create layout in
    let src = pick_cell st cells and dst = pick_cell st cells in
    let avoid = random_subset st ~denom:8 cells in
    let label kind = Printf.sprintf "%s #%d" kind i in
    (match Random.State.int st 3 with
    | 0 ->
      same_path (label "shortest")
        (path_cells (Search_kernel.shortest reused ~avoid ~src ~dst ()))
        (path_cells (Search_kernel.shortest fresh ~avoid ~src ~dst ()))
    | 1 ->
      let cost = random_cost st in
      same_path (label "cheapest")
        (path_cells (Search_kernel.cheapest reused ~avoid ~cost ~src ~dst ()))
        (path_cells (Search_kernel.cheapest fresh ~avoid ~cost ~src ~dst ()))
    | _ ->
      let targets = random_subset st ~denom:10 cells in
      let run arena =
        covering_outcome (fun () ->
            Search_kernel.covering arena ~avoid ~src ~dst ~targets ())
      in
      Alcotest.(check bool) (label "covering") true (run reused = run fresh))
  done

(* --- flush against an all-pairs oracle ------------------------------ *)

(* Brute-force flush: every (flow, waste) pair through the reference
   covering search, a path costing the sum of [1 + cost c] over its
   cells, the first strictly cheaper pair winning.  No chain sharing,
   no bound. *)
let reference_flush layout ~avoid ?cost ~targets () =
  let price = match cost with None -> fun _ -> 1 | Some f -> fun c -> 1 + f c in
  let best = ref None in
  List.iter
    (fun (fp : Port.t) ->
      List.iter
        (fun (wp : Port.t) ->
          match
            Router_oracle.covering layout ~avoid ?cost ~src:fp.Port.position
              ~dst:wp.Port.position ~targets ()
          with
          | None -> ()
          | Some p -> (
            let c = List.fold_left (fun acc c -> acc + price c) 0 (Gpath.cells p) in
            match !best with
            | Some (_, bc, _, _) when bc <= c -> ()
            | _ -> best := Some (p, c, fp.Port.id, wp.Port.id)))
        (Layout.waste_ports layout))
    (Layout.flow_ports layout);
  Option.map (fun (p, _, f, w) -> (p, f, w)) !best

let render_flush = function
  | None -> "none"
  | Some (p, f, w) ->
    Printf.sprintf "ports %d->%d via %s" f w
      (String.concat ";" (List.map Coord.to_string (Gpath.cells p)))

(* Cases drawn and cases with a winner, so the property cannot pass on
   [None = None] alone. *)
let flush_cases = ref 0
let flush_winners = ref 0

(* Ring buses with many closely spaced ports, drawn for half the cases.
   A ring's long rows join only at their ends and through devices, so a
   leg to a target one row over can run a whole row and sweep up the
   targets on it; neighbouring flow ports give near-tied pairs, so a
   flow port visited late often wins under a tight budget.  That is
   where a leg bound that charges the targets left after the leg goes
   wrong: the general pool alone caught such a bound in about one case
   in two thousand. *)
let ring_ladders =
  lazy
    [
      Placement.ring_layout ~flow_ports:8 ~waste_ports:8
        ~device_kinds:
          [ Device.Mixer; Device.Heater; Device.Detector; Device.Filter;
            Device.Mixer; Device.Heater ]
        ();
      Placement.ring_layout ~flow_ports:6 ~waste_ports:6
        ~device_kinds:
          [ Device.Mixer; Device.Heater; Device.Detector; Device.Filter ]
        ();
    ]

(* Random targets — a few channel cells, or any density of routable
   cells — sometimes with a flow or waste port among them (such a waste
   port gets a chain of its own), random avoid sets and random costs. *)
let prop_flush_matches_oracle =
  QCheck2.Test.make ~name:"matches the all-pairs covering oracle" ~count:2000
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 4 |] in
      let layout =
        if Random.State.bool st then pick_layout st
        else
          let rings = Lazy.force ring_ladders in
          List.nth rings (Random.State.int st (List.length rings))
      in
      let cells = routable_cells layout in
      let port_cell ports =
        (List.nth ports (Random.State.int st (List.length ports))).Port.position
      in
      let targets =
        if Random.State.bool st then
          let channels = List.filter (Layout.through_routable layout) cells in
          List.init
            (2 + Random.State.int st 5)
            (fun _ -> pick_cell st channels)
          |> Coord.Set.of_list
        else random_subset st ~denom:(3 + Random.State.int st 40) cells
      in
      let targets =
        match Random.State.int st 6 with
        | 0 -> Coord.Set.add (port_cell (Layout.flow_ports layout)) targets
        | 1 -> Coord.Set.add (port_cell (Layout.waste_ports layout)) targets
        | _ -> targets
      in
      let avoid =
        if Random.State.bool st then Coord.Set.empty
        else random_subset st ~denom:(4 + Random.State.int st 30) cells
      in
      let cost = if Random.State.bool st then Some (random_cost st) else None in
      let expected = reference_flush layout ~avoid ?cost ~targets () in
      let actual = Router.flush layout ~avoid ?cost ~targets () in
      incr flush_cases;
      if expected <> None then incr flush_winners;
      String.equal (render_flush expected) (render_flush actual))

(* A fixed state keeps the suite reproducible; set QCHECK_SEED to
   explore. *)
let test_flush_oracle () =
  flush_cases := 0;
  flush_winners := 0;
  let rand =
    let seed =
      match Sys.getenv_opt "QCHECK_SEED" with
      | Some s -> ( try int_of_string s with Failure _ -> 42)
      | None -> 42
    in
    Random.State.make [| seed |]
  in
  let _, _, run =
    QCheck_alcotest.to_alcotest ~rand prop_flush_matches_oracle
  in
  run ();
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d cases have a winner (at least a quarter)"
       !flush_winners !flush_cases)
    true
    (4 * !flush_winners >= !flush_cases)

let () =
  Alcotest.run "pdw_search_kernel"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shortest_equiv; prop_cheapest_equiv; prop_covering_equiv ] );
      ("arena", [ Alcotest.test_case "epoch reuse" `Quick test_epoch_reuse ]);
      ( "flush",
        [
          Alcotest.test_case "matches the all-pairs covering oracle" `Quick
            test_flush_oracle;
        ] );
    ]
