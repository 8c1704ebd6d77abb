(* Every input the workloads send, built before any timing starts. *)

module Protocol = Pdw_service.Protocol
module Pdw = Pdw_wash.Pdw

type input = {
  label : string;
  spec : Protocol.spec;
  request : Protocol.request;  (* the [Submit] a daemon workload sends *)
}

let make label spec =
  { label; spec; request = Protocol.Submit { spec; no_cache = false } }

(* The motivating example runs on the Fig. 2(a) chip with exact ILP
   wash paths, which gives the LP core its slice of the suite. *)
let ilp_paths = { Pdw.default_config with Pdw.use_ilp_paths = true }

(* The paper's inputs, as the names [pdw run] takes: the eight Table II
   assays, the three storage assays, and the motivating example. *)
let named () =
  List.map
    (fun name -> make name (Protocol.spec (Protocol.Benchmark name)))
    [
      "PCR"; "IVD"; "ProteinSplit"; "Kinase act-1"; "Kinase act-2";
      "Synthetic1"; "Synthetic2"; "Synthetic3"; "StorageShuttle";
      "StorageLadder"; "StorageBurst";
    ]
  @ [
      make "motivating"
        (Protocol.spec ~config:ilp_paths (Protocol.Benchmark "motivating"));
    ]

let random family index =
  make
    (Printf.sprintf "f%d-%d" (Gen.family_id family) index)
    (Protocol.spec (Protocol.Inline (Gen.member family index)))

(* Population sizes the failure survey covered ([Vetted]). *)
let universe = function Gen.Storage_free -> 20_000 | Gen.Parked -> 10_000

let blocked = function
  | Gen.Storage_free -> Vetted.failing_storage_free
  | Gen.Parked -> Vetted.failing_parked

(* The members of [family] a run with [seed] reads, in order: from a
   seed-chosen start, skipping the members the survey saw fail, and
   never wrapping, so no member repeats within a run. *)
let cursor family ~seed =
  let u = universe family in
  let start = (seed * 7919) + (Gen.family_id family * 104_729) in
  let start = ((start mod u) + u) mod u in
  let taken = ref 0 in
  let rec next () =
    if !taken >= u then None
    else begin
      let index = (start + !taken) mod u in
      incr taken;
      if Array.mem index (blocked family) then next () else Some index
    end
  in
  next

(* --- submit-cold ---------------------------------------------------- *)

(* One round of submit-cold: 40 requests, of which 32 storage-free
   assays, 6 parked assays, and the two parked assays that deadlock
   today ([Vetted.deadlocking]), always at positions 19 and 39.  Every
   run attempts whole rounds, so the deadlocks are exactly 1/20 of the
   attempts whatever the seed and the run length. *)
let round_size = 40

let cold_rounds ~seed ~rounds =
  let free = cursor Gen.Storage_free ~seed in
  let parked = cursor Gen.Parked ~seed in
  let take family next =
    Option.map (random family) (next ())
  in
  let rec build acc r =
    if r = rounds then List.rev acc
    else
      let round =
        List.init round_size (fun j ->
            if j = 19 then Some (random Gen.Parked Vetted.deadlocking.(0))
            else if j = 39 then Some (random Gen.Parked Vetted.deadlocking.(1))
            else if j mod 5 = 4 then take Gen.Parked parked
            else take Gen.Storage_free free)
      in
      if List.mem None round then List.rev acc
      else build (List.rev_append (List.filter_map Fun.id round) acc) (r + 1)
  in
  Array.of_list (build [] 0)

(* --- submit-hit ----------------------------------------------------- *)

(* The warm set: the twelve named inputs plus 180 storage-free assays,
   192 plans in all.  The default cache holds 256 plans, split evenly
   over the daemon's two workers, 128 each; 192 digests overflow one
   half only if two thirds of them hash to it, which no seed comes near
   (the set-up checks every measured request is a hit).  The random
   part is large so that the mix of reply sizes, and with it the
   latency, varies little from seed to seed, and a pass over the set
   is long enough to be a steady sample of its own. *)
let hit_set ~seed =
  let free = cursor Gen.Storage_free ~seed in
  named ()
  @ List.init 180 (fun _ -> random Gen.Storage_free (Option.get (free ())))
