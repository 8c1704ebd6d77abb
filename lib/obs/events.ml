type t =
  | Necessity_verdict of {
      round : int;
      cell : int * int;
      residue : string;
      deposited_at : int;
      source : string;
      verdict : string;
      rule : string;
      next_use : string option;
      next_start : int option;
      next_fluid : string option;
      parked : bool;
    }
  | Merge_accept of {
      round : int;
      removal_task : int;
      group : int;
      base_len : int;
      enlarged_len : int;
      budget : int;
      window : int * int;
      spans_hold : bool;
    }
  | Merge_reject of {
      round : int;
      removal_task : int;
      reason : string;
      removal_window : (int * int) option;
      group : int option;
      blocking_window : (int * int) option;
    }
  | Wash_path of {
      round : int;
      wash_task : int;
      group : int;
      targets : (int * int) list;
      window : int * int;
      finder : string;
      flow_port : int;
      waste_port : int;
      flow_candidates : int;
      waste_candidates : int;
      length : int;
      merged_removals : int list;
      contaminators : string list;
      use_keys : string list;
    }
  | Storage_hold of {
      round : int;
      park_task : int;
      cell : int * int;
      fluid : string;
      hold_start : int;
      hold_until : int;
    }
  | Reschedule_shift of {
      round : int;
      key : string;
      from_start : int;
      to_start : int;
    }
  | Ilp_incumbent of { objective : float; nodes_expanded : int }

(* Same single-gate discipline as Trace: one atomic load when disabled. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let sink : t Sink.t = Sink.create ()
let emit ev = if Atomic.get enabled_flag then Sink.add sink ev
let events () = Sink.to_list sink
let num_events () = Sink.length sink
let dropped () = Sink.dropped sink
let reset () = Sink.reset sink

(* The ambient round is domain-local: a pooled harness runs one planner
   per domain, so each worker keeps its own round without locking. *)
let round_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let set_round r = Domain.DLS.set round_key r
let current_round () = Domain.DLS.get round_key

(* --- JSONL --- *)

let pair (x, y) = Json.Arr [ Json.Int x; Json.Int y ]

let opt f = function None -> Json.Null | Some v -> f v

let to_json ~seq ev =
  let fields =
    match ev with
    | Necessity_verdict n ->
      [
        ("type", Json.Str "necessity_verdict");
        ("round", Json.Int n.round);
        ("cell", pair n.cell);
        ("residue", Json.Str n.residue);
        ("deposited_at", Json.Int n.deposited_at);
        ("source", Json.Str n.source);
        ("verdict", Json.Str n.verdict);
        ("rule", Json.Str n.rule);
        ("next_use", opt (fun s -> Json.Str s) n.next_use);
        ("next_start", opt (fun i -> Json.Int i) n.next_start);
        ("next_fluid", opt (fun s -> Json.Str s) n.next_fluid);
        ("parked", Json.Bool n.parked);
      ]
    | Merge_accept m ->
      [
        ("type", Json.Str "merge_accept");
        ("round", Json.Int m.round);
        ("removal_task", Json.Int m.removal_task);
        ("group", Json.Int m.group);
        ("base_len", Json.Int m.base_len);
        ("enlarged_len", Json.Int m.enlarged_len);
        ("budget", Json.Int m.budget);
        ("window", pair m.window);
        ("spans_hold", Json.Bool m.spans_hold);
      ]
    | Merge_reject m ->
      [
        ("type", Json.Str "merge_reject");
        ("round", Json.Int m.round);
        ("removal_task", Json.Int m.removal_task);
        ("reason", Json.Str m.reason);
        ("removal_window", opt pair m.removal_window);
        ("group", opt (fun i -> Json.Int i) m.group);
        ("blocking_window", opt pair m.blocking_window);
      ]
    | Wash_path w ->
      [
        ("type", Json.Str "wash_path");
        ("round", Json.Int w.round);
        ("wash_task", Json.Int w.wash_task);
        ("group", Json.Int w.group);
        ("targets", Json.Arr (List.map pair w.targets));
        ("window", pair w.window);
        ("finder", Json.Str w.finder);
        ("flow_port", Json.Int w.flow_port);
        ("waste_port", Json.Int w.waste_port);
        ("flow_candidates", Json.Int w.flow_candidates);
        ("waste_candidates", Json.Int w.waste_candidates);
        ("length", Json.Int w.length);
        ( "merged_removals",
          Json.Arr (List.map (fun i -> Json.Int i) w.merged_removals) );
        ( "contaminators",
          Json.Arr (List.map (fun s -> Json.Str s) w.contaminators) );
        ("use_keys", Json.Arr (List.map (fun s -> Json.Str s) w.use_keys));
      ]
    | Storage_hold h ->
      [
        ("type", Json.Str "storage_hold");
        ("round", Json.Int h.round);
        ("park_task", Json.Int h.park_task);
        ("cell", pair h.cell);
        ("fluid", Json.Str h.fluid);
        ("hold_start", Json.Int h.hold_start);
        ("hold_until", Json.Int h.hold_until);
      ]
    | Reschedule_shift r ->
      [
        ("type", Json.Str "reschedule_shift");
        ("round", Json.Int r.round);
        ("key", Json.Str r.key);
        ("from_start", Json.Int r.from_start);
        ("to_start", Json.Int r.to_start);
      ]
    | Ilp_incumbent i ->
      [
        ("type", Json.Str "ilp_incumbent");
        ("objective", Json.Float i.objective);
        ("nodes_expanded", Json.Int i.nodes_expanded);
      ]
  in
  Json.Obj (("seq", Json.Int seq) :: fields)

let to_line ~seq ev = Json.to_string (to_json ~seq ev)

(* --- parsing back --- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field j name coerce =
  match Json.member name j with
  | Some v -> (
    match coerce v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field j name coerce =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match coerce v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let as_pair = function
  | Json.Arr [ Json.Int x; Json.Int y ] -> Some (x, y)
  | _ -> None

let as_pairs j =
  match Json.to_list j with
  | None -> None
  | Some l ->
    let pairs = List.filter_map as_pair l in
    if List.length pairs = List.length l then Some pairs else None

let as_ints j =
  match Json.to_list j with
  | None -> None
  | Some l ->
    let ints = List.filter_map Json.to_int l in
    if List.length ints = List.length l then Some ints else None

let as_strs j =
  match Json.to_list j with
  | None -> None
  | Some l ->
    let strs = List.filter_map Json.to_str l in
    if List.length strs = List.length l then Some strs else None

let of_json j =
  let* seq = field j "seq" Json.to_int in
  let* kind = field j "type" Json.to_str in
  let* ev =
    match kind with
    | "necessity_verdict" ->
      let* round = field j "round" Json.to_int in
      let* cell = field j "cell" as_pair in
      let* residue = field j "residue" Json.to_str in
      let* deposited_at = field j "deposited_at" Json.to_int in
      let* source = field j "source" Json.to_str in
      let* verdict = field j "verdict" Json.to_str in
      let* rule = field j "rule" Json.to_str in
      let* next_use = opt_field j "next_use" Json.to_str in
      let* next_start = opt_field j "next_start" Json.to_int in
      let* next_fluid = opt_field j "next_fluid" Json.to_str in
      let* parked = opt_field j "parked" Json.to_bool in
      let parked = Option.value parked ~default:false in
      Ok
        (Necessity_verdict
           {
             round; cell; residue; deposited_at; source; verdict; rule;
             next_use; next_start; next_fluid; parked;
           })
    | "merge_accept" ->
      let* round = field j "round" Json.to_int in
      let* removal_task = field j "removal_task" Json.to_int in
      let* group = field j "group" Json.to_int in
      let* base_len = field j "base_len" Json.to_int in
      let* enlarged_len = field j "enlarged_len" Json.to_int in
      let* budget = field j "budget" Json.to_int in
      let* window = field j "window" as_pair in
      let* spans_hold = opt_field j "spans_hold" Json.to_bool in
      let spans_hold = Option.value spans_hold ~default:false in
      Ok
        (Merge_accept
           { round; removal_task; group; base_len; enlarged_len; budget;
             window; spans_hold })
    | "merge_reject" ->
      let* round = field j "round" Json.to_int in
      let* removal_task = field j "removal_task" Json.to_int in
      let* reason = field j "reason" Json.to_str in
      let* removal_window = opt_field j "removal_window" as_pair in
      let* group = opt_field j "group" Json.to_int in
      let* blocking_window = opt_field j "blocking_window" as_pair in
      Ok
        (Merge_reject
           { round; removal_task; reason; removal_window; group;
             blocking_window })
    | "wash_path" ->
      let* round = field j "round" Json.to_int in
      let* wash_task = field j "wash_task" Json.to_int in
      let* group = field j "group" Json.to_int in
      let* targets = field j "targets" as_pairs in
      let* window = field j "window" as_pair in
      let* finder = field j "finder" Json.to_str in
      let* flow_port = field j "flow_port" Json.to_int in
      let* waste_port = field j "waste_port" Json.to_int in
      let* flow_candidates = field j "flow_candidates" Json.to_int in
      let* waste_candidates = field j "waste_candidates" Json.to_int in
      let* length = field j "length" Json.to_int in
      let* merged_removals = field j "merged_removals" as_ints in
      let* contaminators = field j "contaminators" as_strs in
      let* use_keys = field j "use_keys" as_strs in
      Ok
        (Wash_path
           {
             round; wash_task; group; targets; window; finder; flow_port;
             waste_port; flow_candidates; waste_candidates; length;
             merged_removals; contaminators; use_keys;
           })
    | "storage_hold" ->
      let* round = field j "round" Json.to_int in
      let* park_task = field j "park_task" Json.to_int in
      let* cell = field j "cell" as_pair in
      let* fluid = field j "fluid" Json.to_str in
      let* hold_start = field j "hold_start" Json.to_int in
      let* hold_until = field j "hold_until" Json.to_int in
      Ok
        (Storage_hold
           { round; park_task; cell; fluid; hold_start; hold_until })
    | "reschedule_shift" ->
      let* round = field j "round" Json.to_int in
      let* key = field j "key" Json.to_str in
      let* from_start = field j "from_start" Json.to_int in
      let* to_start = field j "to_start" Json.to_int in
      Ok (Reschedule_shift { round; key; from_start; to_start })
    | "ilp_incumbent" ->
      let* objective = field j "objective" Json.to_float in
      let* nodes_expanded = field j "nodes_expanded" Json.to_int in
      Ok (Ilp_incumbent { objective; nodes_expanded })
    | other -> Error (Printf.sprintf "unknown event type %S" other)
  in
  Ok (seq, ev)

let of_line line =
  match Json.parse line with
  | Error m -> Error m
  | Ok j -> of_json j

let write_jsonl path =
  let oc = open_out path in
  List.iteri
    (fun seq ev ->
      output_string oc (to_line ~seq ev);
      output_char oc '\n')
    (events ());
  close_out oc

let load_jsonl path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
    let lines = String.split_on_char '\n' text in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else (
          match of_line line with
          | Ok (_, ev) -> go (ev :: acc) (lineno + 1) rest
          | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
    in
    go [] 1 lines
