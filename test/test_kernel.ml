(* Equivalence tests for the flat-array search kernel: on random
   layouts, random endpoints, random avoid sets, random costs and random
   target sets, the kernel-backed [Router.shortest] / [cheapest] /
   [covering] must return exactly the same paths as the legacy
   table-and-set implementations kept in [Router.Reference] — that
   identity is what keeps every planner metric byte-identical across
   the perf overhaul.  Plus: arena reuse across many searches (the
   epoch trick), and flush determinism across domain counts against a
   brute-force oracle. *)

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
        (Router.Reference.shortest layout ~avoid ~src ~dst ()))

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
        (Router.Reference.cheapest layout ~avoid ~cost ~src ~dst ()))

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
            Router.Reference.covering layout ?cost ~src ~dst ~targets ())
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

(* --- flush: oracle + domain-count determinism ---------------------- *)

(* Brute-force flush oracle: every (flow, waste) pair via the reference
   covering search, cost = cell count, first strictly-cheaper pair
   wins. *)
let reference_flush layout ~targets =
  let best = ref None in
  List.iter
    (fun (fp : Port.t) ->
      List.iter
        (fun (wp : Port.t) ->
          match
            Router.Reference.covering layout ~src:fp.Port.position
              ~dst:wp.Port.position ~targets ()
          with
          | None -> ()
          | Some p -> (
            let c = List.length (Gpath.cells p) in
            match !best with
            | Some (_, bc, _, _) when bc <= c -> ()
            | _ -> best := Some (p, c, fp.Port.id, wp.Port.id)))
        (Layout.waste_ports layout))
    (Layout.flow_ports layout);
  Option.map (fun (p, _, f, w) -> (p, f, w)) !best

let check_flush_result label expected actual =
  let render = function
    | None -> "none"
    | Some (p, f, w) ->
      Printf.sprintf "ports %d->%d via %s" f w
        (String.concat ";"
           (List.map Coord.to_string (Gpath.cells p)))
  in
  Alcotest.(check string) label (render expected) (render actual)

let prop_flush_matches_oracle_and_domains =
  QCheck2.Test.make
    ~name:"flush = brute-force oracle at 1 and 2 domains" ~count:25
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 4 |] in
      let layout = pick_layout st in
      let cells = routable_cells layout in
      let targets = random_subset st ~denom:15 cells in
      let expected = reference_flush layout ~targets in
      Router.set_flush_domains 1;
      let seq = Router.flush layout ~targets () in
      Router.set_flush_domains 2;
      let par = Router.flush layout ~targets () in
      Router.set_flush_domains 1;
      check_flush_result "sequential flush" expected seq;
      check_flush_result "parallel flush" expected par;
      true)

let () =
  Alcotest.run "pdw_search_kernel"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shortest_equiv; prop_cheapest_equiv; prop_covering_equiv ] );
      ("arena", [ Alcotest.test_case "epoch reuse" `Quick test_epoch_reuse ]);
      ( "flush",
        List.map QCheck_alcotest.to_alcotest
          [ prop_flush_matches_oracle_and_domains ] );
    ]
