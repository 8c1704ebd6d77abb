(* Geometric buckets: with relative accuracy α and γ = (1+α)², bucket i
   (1-based) covers (lo·γ^(i-1), lo·γ^i] and answers queries with the
   geometric midpoint lo·γ^(i-½).  For any v in the bucket the ratio
   midpoint/v lies in [1/(1+α), 1+α], so the answer is within α
   relative error.  Bucket 0 catches everything ≤ lo (and NaN /
   negatives); bucket n+1 everything past hi. *)

type config = { lo : float; hi : float; rel_err : float }

type t = {
  cfg : config;
  log_gamma : float;  (* ln γ, cached for the record path *)
  n : int;  (* geometric buckets; cells.(0) and cells.(n+1) open-ended *)
  cells : int Atomic.t array;
  total : int Atomic.t;
  sum_fp : int Atomic.t;  (* Σ values, fixed point: [sum_scale] per unit *)
}

(* A binary scale keeps the fixed-point sum exact under merge and
   saturation-free for ~4·10^12 unit-sized records. *)
let sum_scale = 1024. *. 1024.

let create ?(lo = 1e-3) ?(hi = 1e7) ?(rel_err = 0.05) () =
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Histogram.create: need 0 < lo < hi";
  if not (rel_err > 0.0 && rel_err < 1.0) then
    invalid_arg "Histogram.create: need 0 < rel_err < 1";
  let log_gamma = 2.0 *. Float.log1p rel_err in
  let n = int_of_float (Float.ceil (Float.log (hi /. lo) /. log_gamma)) in
  {
    cfg = { lo; hi; rel_err };
    log_gamma;
    n;
    cells = Array.init (n + 2) (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum_fp = Atomic.make 0;
  }

let config t = t.cfg

let like t =
  {
    t with
    cells = Array.init (t.n + 2) (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum_fp = Atomic.make 0;
  }

let index t v =
  if not (v > t.cfg.lo) (* also catches NaN and negatives *) then 0
  else
    (* ⌈log_γ (v/lo)⌉ with a one-ulp-ish slack so exact boundaries do
       not round up into the next bucket. *)
    let i =
      int_of_float
        (Float.ceil ((Float.log (v /. t.cfg.lo) /. t.log_gamma) -. 1e-9))
    in
    if i < 1 then 1 else if i > t.n then t.n + 1 else i

let record t v =
  let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
  ignore (Atomic.fetch_and_add t.cells.(index t v) 1);
  ignore (Atomic.fetch_and_add t.total 1);
  ignore (Atomic.fetch_and_add t.sum_fp
            (int_of_float (Float.round (v *. sum_scale))))

let count t = Atomic.get t.total

let sum t = float_of_int (Atomic.get t.sum_fp) /. sum_scale

let mean t =
  let n = count t in
  if n = 0 then 0.0 else sum t /. float_of_int n

(* Inclusive upper bound of bucket [i]. *)
let bound t i =
  if i = 0 then t.cfg.lo
  else if i > t.n then infinity
  else t.cfg.lo *. Float.exp (float_of_int i *. t.log_gamma)

(* The value a bucket answers queries with: its geometric midpoint
   (within rel_err of everything it holds); the open-ended buckets
   answer their finite edge. *)
let representative t i =
  if i = 0 then t.cfg.lo
  else if i > t.n then t.cfg.lo *. Float.exp (float_of_int t.n *. t.log_gamma)
  else t.cfg.lo *. Float.exp ((float_of_int i -. 0.5) *. t.log_gamma)

let quantile t q =
  (* Snapshot the cells first: concurrent records move them, and the
     walk must see one consistent total. *)
  let counts = Array.map Atomic.get t.cells in
  let n_tot = Array.fold_left ( + ) 0 counts in
  if n_tot = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    (* Nearest-rank, exactly as the retired sorted-array percentile
       code computed it — the QCheck oracle property depends on the
       rank conventions matching. *)
    let rank =
      min (n_tot - 1) (int_of_float ((q *. float_of_int (n_tot - 1)) +. 0.5))
    in
    let rec walk i cum =
      let cum = cum + counts.(i) in
      if cum > rank then representative t i else walk (i + 1) cum
    in
    walk 0 0
  end

let merge a b =
  if a.cfg <> b.cfg then invalid_arg "Histogram.merge: differing configs";
  {
    a with
    cells =
      Array.init (a.n + 2) (fun i ->
          Atomic.make (Atomic.get a.cells.(i) + Atomic.get b.cells.(i)));
    total = Atomic.make (Atomic.get a.total + Atomic.get b.total);
    sum_fp = Atomic.make (Atomic.get a.sum_fp + Atomic.get b.sum_fp);
  }

let buckets t =
  let acc = ref [] in
  for i = t.n + 1 downto 0 do
    let c = Atomic.get t.cells.(i) in
    if c > 0 then acc := (bound t i, c) :: !acc
  done;
  !acc

let cumulative t =
  let counts = Array.map Atomic.get t.cells in
  let total = Array.fold_left ( + ) 0 counts in
  let acc = ref [ (infinity, total) ] in
  let cum = ref total in
  for i = t.n downto 0 do
    (* Entry for bucket i reports everything ≤ its bound, i.e. the
       cumulative count with buckets above i removed. *)
    cum := !cum - (if i + 1 <= t.n + 1 then counts.(i + 1) else 0);
    if counts.(i) > 0 then acc := (bound t i, !cum) :: !acc
  done;
  !acc
