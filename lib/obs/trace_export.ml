let micros seconds = Float.to_int (seconds *. 1e6)

let event_json epoch (e : Trace.event) =
  Json.Obj
    ([
       ("name", Json.Str e.Trace.name);
       ("cat", Json.Str (if e.Trace.cat = "" then "pdw" else e.Trace.cat));
       ("ph", Json.Str "X");
       ("ts", Json.Int (micros (e.Trace.ts -. epoch)));
       ("dur", Json.Int (micros e.Trace.dur));
       ("pid", Json.Int 1);
       ("tid", Json.Int e.Trace.tid);
     ]
    @
    match e.Trace.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])

let chrome_json () =
  let epoch = Trace.epoch () in
  let counters =
    List.filter_map
      (fun (name, _, v) -> if v <> 0 then Some (name, Json.Int v) else None)
      (Counters.all ())
  in
  Json.to_string
    (Json.Obj
       ([
          ("traceEvents", Json.Arr (List.map (event_json epoch) (Trace.events ())));
          ("displayTimeUnit", Json.Str "ms");
          ("counters", Json.Obj counters);
        ]
       @
       if Trace.dropped () > 0 then [ ("droppedEvents", Json.Int (Trace.dropped ())) ]
       else []))

let write_chrome path =
  let oc = open_out path in
  output_string oc (chrome_json ());
  output_string oc "\n";
  close_out oc

let stage_totals ?(since = 0) ~names () =
  let tally = Hashtbl.create 16 in
  List.iteri
    (fun i (e : Trace.event) ->
      if i >= since && List.mem e.Trace.name names then
        let prev =
          match Hashtbl.find_opt tally e.Trace.name with
          | Some ms -> ms
          | None -> 0.0
        in
        Hashtbl.replace tally e.Trace.name (prev +. (e.Trace.dur *. 1000.0)))
    (Trace.events ());
  List.filter_map
    (fun name ->
      Option.map (fun ms -> (name, ms)) (Hashtbl.find_opt tally name))
    names

let stage_allocs ?(since = 0) ~names () =
  let tally = Hashtbl.create 16 in
  List.iteri
    (fun i (e : Trace.event) ->
      if i >= since && List.mem e.Trace.name names then
        let minor, major =
          match Hashtbl.find_opt tally e.Trace.name with
          | Some acc -> acc
          | None -> (0.0, 0.0)
        in
        Hashtbl.replace tally e.Trace.name
          (minor +. e.Trace.minor_words, major +. e.Trace.major_words))
    (Trace.events ());
  List.filter_map
    (fun name ->
      Option.map (fun acc -> (name, acc)) (Hashtbl.find_opt tally name))
    names

(* --- plain-text summary ------------------------------------------- *)

(* Aggregate events into a trie keyed by span path.  Worker-domain
   spans merge into the same tree; the Chrome export keeps per-domain
   lanes for anyone who needs them separated. *)
type node = {
  mutable count : int;
  mutable total : float;
  children : (string, node) Hashtbl.t;
}

let fresh () = { count = 0; total = 0.0; children = Hashtbl.create 4 }

let build events =
  let root = fresh () in
  List.iter
    (fun (e : Trace.event) ->
      let rec descend node = function
        | [] ->
          node.count <- node.count + 1;
          node.total <- node.total +. e.Trace.dur
        | name :: rest ->
          let child =
            match Hashtbl.find_opt node.children name with
            | Some c -> c
            | None ->
              let c = fresh () in
              Hashtbl.replace node.children name c;
              c
          in
          descend child rest
      in
      descend root e.Trace.path)
    events;
  root

let summary ppf =
  let root = build (Trace.events ()) in
  Format.fprintf ppf "@[<v>%-46s %9s %12s %12s@," "span" "count"
    "total ms" "self ms";
  let rec print indent name node =
    let child_total =
      Hashtbl.fold (fun _ c acc -> acc +. c.total) node.children 0.0
    in
    let self = node.total -. child_total in
    Format.fprintf ppf "%-46s %9d %12.2f %12.2f@,"
      (String.make indent ' ' ^ name)
      node.count (1000.0 *. node.total) (1000.0 *. self);
    children indent node
  and children indent node =
    Hashtbl.fold (fun name c acc -> (name, c) :: acc) node.children []
    |> List.sort (fun (na, a) (nb, b) ->
           let c = Float.compare b.total a.total in
           if c <> 0 then c else String.compare na nb)
    |> List.iter (fun (name, c) -> print (indent + 2) name c)
  in
  children (-2) root;
  if Trace.dropped () > 0 then
    Format.fprintf ppf "(%d spans dropped at the %s-event cap)@,"
      (Trace.dropped ()) "1,000,000";
  let nonzero = List.filter (fun (_, _, v) -> v <> 0) (Counters.all ()) in
  if nonzero <> [] then begin
    Format.fprintf ppf "@,%-46s %9s@," "counter" "value";
    List.iter
      (fun (name, kind, v) ->
        Format.fprintf ppf "%-46s %9d%s@," name v
          (match kind with Counters.Gauge -> "  (gauge)" | Counters.Counter -> ""))
      nonzero
  end;
  Format.fprintf ppf "@]@?"
