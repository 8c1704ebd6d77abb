(* Summary statistics and the small bits of bookkeeping the report
   prints: percentiles by the tail rule, ratios with their base, and
   failure tallies by fault. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The 1-based nearest rank of percentile [p] among [n] samples,
   [ceil (p/100 * n)], immune to the rounding of [p/100 * n]. *)
let rank p n = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (rank p n - 1)))

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Tail percentiles the report may quote, lowest first: a decade ladder
   above p75, so a run's sample count must change tenfold before the
   quoted percentile moves up a step. *)
let ladder = [ 75.0; 90.0; 99.0; 99.9; 99.99 ]

(* The tail rule: the highest percentile of [ladder] that leaves at
   least ten samples beyond its nearest rank.  Under forty samples no
   percentile qualifies as a tail and the median stands alone
   ([None]). *)
let tail_percentile n =
  if n < 40 then None
  else
    List.fold_left
      (fun best p -> if n - rank p n >= 10 then Some p else best)
      None ladder

(* [(label, value)] of the tail: ["p90", v], say, or ["p50", median]
   when the sample is too small for a tail. *)
let tail a =
  match tail_percentile (Array.length a) with
  | Some p -> (Printf.sprintf "p%g" p, percentile a p)
  | None -> ("p50", median a)

(* Throughput as the median over a run's windows (a pass or a round),
   given as [(operations, seconds)]: a burst of interference from
   outside the program slows a few windows, not the figure. *)
let median_rate windows =
  median (sorted (List.map (fun (ops, s) -> float_of_int ops /. s) windows))

(* A ratio that keeps its base, so the report can print both. *)
type ratio = { num : float; den : float; what : string }

let ratio ~what num den = { num; den; what }

let ratio_value r = if r.den = 0.0 then 0.0 else r.num /. r.den

let pp_ratio r =
  Printf.sprintf "%.4f (%g / %g %s)" (ratio_value r) r.num r.den r.what

(* Failed operations by fault. *)
module Tally = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable by_fault : (string * int) list;  (* first occurrence first *)
  }

  let create () = { attempted = 0; failed = 0; by_fault = [] }

  let attempt t = t.attempted <- t.attempted + 1

  let fail t fault =
    t.failed <- t.failed + 1;
    t.by_fault <-
      (if List.mem_assoc fault t.by_fault then
         List.map
           (fun (f, c) -> if String.equal f fault then (f, c + 1) else (f, c))
           t.by_fault
       else t.by_fault @ [ (fault, 1) ])

  let succeeded t = t.attempted - t.failed

  let summary t =
    Printf.sprintf "attempted %d, failed %d%s" t.attempted t.failed
      (String.concat ""
         (List.map (fun (f, c) -> Printf.sprintf "; %d x %s" c f) t.by_fault))
end
