type outcome = Hit | Planned | Coalesced | Shed | Timeout | Failed

type record = {
  id : int;
  digest : string;
  outcome : outcome;
  total_ms : float;
  stages : (string * float) list;
}

let outcome_to_string = function
  | Hit -> "hit"
  | Planned -> "planned"
  | Coalesced -> "coalesced"
  | Shed -> "shed"
  | Timeout -> "timeout"
  | Failed -> "failed"

let outcome_of_string = function
  | "hit" -> Some Hit
  | "planned" -> Some Planned
  | "coalesced" -> Some Coalesced
  | "shed" -> Some Shed
  | "timeout" -> Some Timeout
  | "failed" -> Some Failed
  | _ -> None

(* --- JSONL --- *)

let to_json r =
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("digest", Json.Str r.digest);
      ("outcome", Json.Str (outcome_to_string r.outcome));
      ("total_ms", Json.Float r.total_ms);
      ( "stages",
        Json.Arr
          (List.map
             (fun (name, ms) -> Json.Arr [ Json.Str name; Json.Float ms ])
             r.stages) );
    ]

let to_line r = Json.to_string (to_json r)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field j name coerce =
  match Json.member name j with
  | Some v -> (
    match coerce v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_stage = function
  | Json.Arr [ Json.Str name; v ] -> (
    match Json.to_float v with Some ms -> Some (name, ms) | None -> None)
  | _ -> None

let as_stages j =
  match Json.to_list j with
  | None -> None
  | Some l ->
    let stages = List.filter_map as_stage l in
    if List.length stages = List.length l then Some stages else None

let of_line line =
  let* j = Json.parse line in
  let* id = field j "id" Json.to_int in
  let* digest = field j "digest" Json.to_str in
  let* outcome_s = field j "outcome" Json.to_str in
  let* outcome =
    match outcome_of_string outcome_s with
    | Some o -> Ok o
    | None -> Error (Printf.sprintf "unknown outcome %S" outcome_s)
  in
  let* total_ms = field j "total_ms" Json.to_float in
  let* stages = field j "stages" as_stages in
  Ok { id; digest; outcome; total_ms; stages }

(* --- slow-request ledger (process-global, Events discipline) --- *)

let slow_gate = Atomic.make false

(* Sink state behind the gate; only touched with the gate up or while
   flipping it, always under [slow_lock]. *)
let slow_lock = Mutex.create ()
let slow_chan : out_channel option ref = ref None
let slow_threshold = ref infinity

let slow_log_enabled () = Atomic.get slow_gate

let close_sink_locked () =
  (match !slow_chan with Some oc -> close_out_noerr oc | None -> ());
  slow_chan := None

let set_slow_log ~threshold_ms path =
  Mutex.lock slow_lock;
  close_sink_locked ();
  slow_chan := Some (open_out_gen [ Open_append; Open_creat ] 0o644 path);
  slow_threshold := threshold_ms;
  Atomic.set slow_gate true;
  Mutex.unlock slow_lock

let disable_slow_log () =
  Mutex.lock slow_lock;
  Atomic.set slow_gate false;
  close_sink_locked ();
  Mutex.unlock slow_lock

let maybe_log_slow r =
  (* Single atomic load on the fast (disabled) path. *)
  if Atomic.get slow_gate then begin
    Mutex.lock slow_lock;
    (match !slow_chan with
    | Some oc when r.total_ms >= !slow_threshold ->
      output_string oc (to_line r);
      output_char oc '\n';
      flush oc
    | _ -> ());
    Mutex.unlock slow_lock
  end

(* --- recent-requests ring --- *)

type ring = {
  m : Mutex.t;
  slots : record option array;
  mutable next : int;  (* slot the next record lands in *)
  mutable total : int;  (* records ever noted *)
}

let create_ring ?(capacity = 512) () =
  if capacity <= 0 then invalid_arg "Reqtrace.create_ring: capacity <= 0";
  { m = Mutex.create (); slots = Array.make capacity None; next = 0; total = 0 }

let seen ring =
  Mutex.lock ring.m;
  let n = ring.total in
  Mutex.unlock ring.m;
  n

let note ring r =
  Mutex.lock ring.m;
  ring.slots.(ring.next) <- Some r;
  ring.next <- (ring.next + 1) mod Array.length ring.slots;
  ring.total <- ring.total + 1;
  Mutex.unlock ring.m;
  maybe_log_slow r

let recent ring =
  Mutex.lock ring.m;
  let cap = Array.length ring.slots in
  let acc = ref [] in
  (* Walk backwards from the most recent slot; stop at the first empty
     one (slots fill in order, so emptiness means we wrapped the lot). *)
  (try
     for k = 1 to cap do
       match ring.slots.((ring.next - k + (2 * cap)) mod cap) with
       | Some r -> acc := r :: !acc
       | None -> raise Exit
     done
   with Exit -> ());
  Mutex.unlock ring.m;
  List.rev !acc
