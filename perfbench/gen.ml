(* The benchmark's own seeded assay generator.

   It deliberately uses neither [Pdw_assay.Assay_gen] nor the stdlib
   [Random]: a later change to either would change what a comparison
   feeds the two commits it compares.  The generator is SplitMix64 and
   writes assays straight into the text format [pdw submit --file]
   accepts, so the program only ever sees finished inputs. *)

type rng = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let next r =
  r.state <- Int64.add r.state golden;
  let z = r.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [int r n] is uniform in [0, n) up to a bias below 2^-40 for the
   small [n] used here. *)
let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let int_in r lo hi = lo + int r (hi - lo + 1)

let bool r = Int64.logand (next r) 1L = 1L

(* Below 1.0 with probability [p], on a 2^-30 grid. *)
let chance r p = float_of_int (int r (1 lsl 30)) < p *. float_of_int (1 lsl 30)

(* One independent stream per (family, index): the same pair always
   yields the same assay, and neighbouring indices share nothing. *)
let stream ~family ~index =
  let r =
    { state = Int64.mul golden (Int64.of_int ((family * 1_000_003) + index + 1)) }
  in
  ignore (next r);
  ignore (next r);
  r

let kinds = [| "mix"; "heat"; "detect"; "filter"; "store" |]

let device_of = function
  | "mix" -> "mixer"
  | "heat" -> "heater"
  | "detect" -> "detector"
  | "filter" -> "filter"
  | _ -> "storage"

let reagents = [| "ra"; "rb"; "rc"; "rd"; "re"; "rf" |]

(* A connected-ish random sequencing graph of 5 to 20 operations:
   operation 0 mixes, later operations prefer consuming dangling
   results, mixes take two or three inputs and everything else one.
   Each operation is parked with probability [park_fraction].  The
   device library has one device per kind used, two for kinds used
   more than twice. *)
let assay ~name ~park_fraction r =
  let n = int_in r 5 20 in
  let dangling = ref [] in
  let input i =
    match !dangling with
    | j :: rest when i > 0 && bool r ->
      dangling := rest;
      Printf.sprintf "op:o%d" j
    | _ ->
      if i > 0 && int r 3 = 0 then Printf.sprintf "op:o%d" (int r i)
      else "reagent:" ^ reagents.(int r (Array.length reagents))
  in
  let ops =
    List.init n (fun i ->
        let kind = if i = 0 then "mix" else kinds.(int r (Array.length kinds)) in
        let arity = if kind = "mix" then int_in r 2 3 else 1 in
        let inputs = List.init arity (fun _ -> input i) in
        dangling := i :: !dangling;
        let park = park_fraction > 0.0 && chance r park_fraction in
        let duration = int_in r 2 4 in
        (kind, Printf.sprintf "op o%d %s %d %s%s" i kind duration
                 (if park then "park " else "")
                 (String.concat " " inputs)))
  in
  let uses = Hashtbl.create 5 in
  let order = ref [] in
  List.iter
    (fun (kind, _) ->
      let d = device_of kind in
      match Hashtbl.find_opt uses d with
      | Some c -> Hashtbl.replace uses d (c + 1)
      | None ->
        Hashtbl.add uses d 1;
        order := d :: !order)
    ops;
  let devices =
    List.rev_map
      (fun d ->
        Printf.sprintf "device %s %d" d (if Hashtbl.find uses d > 2 then 2 else 1))
      !order
  in
  String.concat "\n"
    ((("assay " ^ name) :: devices) @ List.map snd ops)
  ^ "\n"

(* The two random populations.  Member [index] of a family is a fixed
   assay, named after its family and index so that every member is a
   distinct planning problem (a distinct cache key); the run's seed
   only chooses where in each family a run starts reading. *)
type family = Storage_free | Parked

let family_id = function Storage_free -> 0 | Parked -> 1

let park_fraction = function Storage_free -> 0.0 | Parked -> 0.3

let member family index =
  assay
    ~name:(Printf.sprintf "f%d-%d" (family_id family) index)
    ~park_fraction:(park_fraction family)
    (stream ~family:(family_id family) ~index)
