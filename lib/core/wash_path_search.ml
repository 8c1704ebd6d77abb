module Coord = Pdw_geometry.Coord
module Schedule = Pdw_synth.Schedule
module Router = Pdw_synth.Router

(* The planner queries occupancy for many windows against the same
   schedule (every candidate group of a round), and re-queries the same
   groups while evaluating integration merges.  A single-slot memo keyed
   by schedule identity covers this: schedules are immutable, and each
   planning round builds a fresh one, naturally evicting the slot.  The
   slot is domain-local, so domains planning at once never evict each
   other's schedule. *)
let occupancy_slot : (Schedule.t * Occupancy.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let occupancy_of schedule =
  match Domain.DLS.get occupancy_slot with
  | Some (s, occ) when s == schedule -> occ
  | _ ->
    let occ = Occupancy.of_schedule schedule in
    Domain.DLS.set occupancy_slot (Some (schedule, occ));
    occ

let busy_cells schedule ~window =
  Occupancy.busy (occupancy_of schedule) ~window

(* Cost of entering a cell other traffic occupies during the wash window:
   a soft penalty, so the search trades a few cells of extra length for
   concurrency but never takes absurd detours (the balance the paper's
   beta/gamma weights strike in Eq. (26)). *)
let conflict_cell_penalty = 1

let find_uncached ~conflict_aware ~layout ~schedule
    (g : Wash_target.group) =
  let targets = g.Wash_target.targets in
  (* A storage cell under a hold cannot be flushed over: the parked
     product rests there until its last fetch, and a wash ordered before
     that fetch would deadlock the serial placer (the fetch waits for the
     wash, the wash for the hold's end).  Held cells outside the group's
     own targets are hard obstacles for every finder — physical validity,
     not a PDW-only refinement.  A cell only appears in [targets] once
     its hold is over (parked residue exists after the last fetch). *)
  (* Every hold cell is avoided, even one whose window is instantaneous
     in the current schedule: inserting this very wash reorders fetches,
     and a zero-width hold can reopen under the new precedence edges. *)
  let held =
    List.fold_left
      (fun acc (h : Schedule.hold) ->
        Coord.Set.add h.Schedule.hold_cell acc)
      Coord.Set.empty (Schedule.holds schedule)
  in
  let avoid = Coord.Set.diff held targets in
  let flush ?cost () =
    match Router.flush layout ~avoid ?cost ~targets () with
    | Some _ as r -> r
    | None ->
      (* No covering path around the held cells: fall back rather than
         fail the whole group. *)
      Router.flush layout ?cost ~targets ()
  in
  let attempt_soft_cost () =
    if not conflict_aware then None
    else begin
      let window = (g.Wash_target.release, g.Wash_target.deadline) in
      let busy = Coord.Set.diff (busy_cells schedule ~window) targets in
      if Coord.Set.is_empty busy then None
      else
        let cost c =
          if Coord.Set.mem c busy then conflict_cell_penalty else 0
        in
        flush ~cost ()
    end
  in
  match attempt_soft_cost () with
  | Some result -> Some result
  | None -> flush ()

(* Whole-search memo.  For a fixed layout and schedule, the result is a
   function of the group's window, targets and conflict awareness alone;
   integration re-evaluates the same candidate groups repeatedly while
   deciding which removals to absorb.  One domain-local slot keyed by
   (layout, schedule) identity, table keyed by the group's
   search-relevant fields — target sets as sorted elements, since
   structurally equal [Coord.Set.t] trees can hash differently. *)
type find_key = int * int * bool * Coord.t list

let find_slot :
    (Pdw_biochip.Layout.t
    * Schedule.t
    * (find_key, (Pdw_geometry.Gpath.t * int * int) option) Hashtbl.t)
    option
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let find ?(conflict_aware = true) ~layout ~schedule
    (g : Wash_target.group) =
  Pdw_obs.Trace.with_span ~cat:"core" "wash_path.search" @@ fun () ->
  let table =
    match Domain.DLS.get find_slot with
    | Some (l, s, tbl) when l == layout && s == schedule -> tbl
    | _ ->
      let tbl = Hashtbl.create 64 in
      Domain.DLS.set find_slot (Some (layout, schedule, tbl));
      tbl
  in
  let key =
    ( g.Wash_target.release,
      g.Wash_target.deadline,
      conflict_aware,
      Coord.Set.elements g.Wash_target.targets )
  in
  match Hashtbl.find_opt table key with
  | Some result -> result
  | None ->
    let result = find_uncached ~conflict_aware ~layout ~schedule g in
    Hashtbl.replace table key result;
    result
