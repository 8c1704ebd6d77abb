(* Tests for the observability layer (lib/obs): span nesting and
   exception safety, counter monotonicity, the no-op guarantee when
   disabled, Chrome-trace export well-formedness (checked with a small
   JSON parser below), and a regression that tracing never changes the
   planner's metrics — Json_export output byte-for-byte. *)

module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters
module Trace_export = Pdw_obs.Trace_export
module Events = Pdw_obs.Events
module Json = Pdw_obs.Json
module Histogram = Pdw_obs.Histogram
module Clock = Pdw_obs.Clock
module Reqtrace = Pdw_obs.Reqtrace

(* Every test starts from a clean, enabled recorder with a fake clock it
   can step, and leaves the layer disabled on the real clock. *)
let fake_now = ref 0.0

let with_obs f () =
  Trace.reset ();
  Counters.reset ();
  Trace.set_clock (fun () -> !fake_now);
  fake_now := 0.0;
  Trace.set_enabled true;
  Counters.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Counters.set_enabled false;
      Events.set_enabled false;
      Trace.set_clock Unix.gettimeofday;
      Trace.reset ();
      Counters.reset ();
      Events.reset ())

let advance dt = fake_now := !fake_now +. dt

(* --- spans --- *)

let test_span_nesting () =
  Trace.with_span ~cat:"t" "outer" (fun () ->
      advance 1.0;
      Trace.with_span ~cat:"t" "inner" (fun () -> advance 2.0);
      advance 4.0);
  match Trace.events () with
  | [ inner; outer ] ->
    (* Completion order: the child finishes (and is recorded) first. *)
    Alcotest.(check string) "inner name" "inner" inner.Trace.name;
    Alcotest.(check string) "outer name" "outer" outer.Trace.name;
    Alcotest.(check (list string))
      "inner path" [ "outer"; "inner" ] inner.Trace.path;
    Alcotest.(check (list string)) "outer path" [ "outer" ] outer.Trace.path;
    Alcotest.(check (float 1e-9)) "inner ts" 1.0 inner.Trace.ts;
    Alcotest.(check (float 1e-9)) "inner dur" 2.0 inner.Trace.dur;
    Alcotest.(check (float 1e-9)) "outer dur" 7.0 outer.Trace.dur;
    (* A span never outlives its parent. *)
    Alcotest.(check bool) "containment" true
      (outer.Trace.ts <= inner.Trace.ts
      && inner.Trace.ts +. inner.Trace.dur
         <= outer.Trace.ts +. outer.Trace.dur)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_exception_safety () =
  (try
     Trace.with_span "outer" (fun () ->
         Trace.with_span "boom" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* Both spans were recorded despite the raise, and the stack unwound:
     a later span is not nested under the dead ones. *)
  Trace.with_span "after" (fun () -> ());
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
  Alcotest.(check (list string)) "events" [ "boom"; "outer"; "after" ] names;
  let after = List.nth (Trace.events ()) 2 in
  Alcotest.(check (list string)) "clean stack" [ "after" ] after.Trace.path

let test_span_args () =
  Trace.with_span ~args:[ ("round", "3") ] "tagged" (fun () -> ());
  match Trace.events () with
  | [ e ] ->
    Alcotest.(check (list (pair string string)))
      "args" [ ("round", "3") ] e.Trace.args
  | _ -> Alcotest.fail "expected one event"

(* A span is charged with its own domain's allocation only: a span that
   allocates nothing while a second domain allocates millions of words
   records next to nothing.  The first second domain of a process costs
   the domain that spawned it some tens of thousands of words inside the
   runtime, once, so a first round runs unmeasured. *)
let quiet_span_words () =
  Trace.reset ();
  let go = Atomic.make false and finished = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do Domain.cpu_relax () done;
        let keep = ref [] in
        for i = 1 to 2_000_000 do
          keep := Sys.opaque_identity [ i ]
        done;
        Atomic.set finished true;
        List.length !keep)
  in
  Trace.with_span "quiet" (fun () ->
      Atomic.set go true;
      while not (Atomic.get finished) do Domain.cpu_relax () done);
  ignore (Domain.join other);
  match Trace.events () with
  | [ e ] -> e.Trace.minor_words
  | _ -> Alcotest.fail "expected one event"

let test_span_words_own_domain () =
  ignore (quiet_span_words ());
  let words = quiet_span_words () in
  if words >= 10_000.0 then
    Alcotest.failf "a quiet span recorded %.0f minor words" words

let test_disabled_records_nothing () =
  Trace.set_enabled false;
  Counters.set_enabled false;
  let c = Counters.counter "test.disabled.counter" in
  let before = Counters.value c in
  let r =
    Trace.with_span "ghost" (fun () ->
        Counters.incr c;
        Counters.add c 7;
        17)
  in
  Alcotest.(check int) "result still returned" 17 r;
  Alcotest.(check int) "no events" 0 (Trace.num_events ());
  Alcotest.(check int) "counter untouched" before (Counters.value c)

(* --- counters --- *)

let test_counter_basics () =
  let c = Counters.counter "test.basic.counter" in
  let g = Counters.gauge "test.basic.gauge" in
  Counters.incr c;
  Counters.add c 4;
  Counters.set g 9;
  Counters.set_max g 3;
  Counters.set_max g 12;
  Alcotest.(check int) "counter" 5 (Counters.value c);
  Alcotest.(check int) "gauge peak" 12 (Counters.value g);
  Alcotest.check_raises "negative add"
    (Invalid_argument "Counters.add: negative increment") (fun () ->
      Counters.add c (-1));
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Counters: \"test.basic.counter\" already registered with another kind")
    (fun () -> ignore (Counters.gauge "test.basic.counter"));
  Alcotest.check_raises "incr on gauge"
    (Invalid_argument "Counters.incr: not a counter") (fun () ->
      Counters.incr g);
  Alcotest.check_raises "set on counter"
    (Invalid_argument "Counters.set: not a gauge") (fun () ->
      Counters.set c 1)

let prop_counter_monotone =
  QCheck2.Test.make ~name:"counters are monotonically non-decreasing"
    ~count:100
    QCheck2.Gen.(list (oneof [ return `Incr; map (fun n -> `Add n) (0 -- 50) ]))
    (fun ops ->
      Counters.set_enabled true;
      let c = Counters.counter "test.prop.counter" in
      let start = Counters.value c in
      let expected = ref start in
      List.for_all
        (fun op ->
          let before = Counters.value c in
          (match op with
          | `Incr ->
            Counters.incr c;
            incr expected
          | `Add n ->
            Counters.add c n;
            expected := !expected + n);
          let v = Counters.value c in
          v >= before && v = !expected)
        ops)

let test_counters_all_sorted () =
  ignore (Counters.counter "test.sorted.b");
  ignore (Counters.counter "test.sorted.a");
  let names = List.map (fun (n, _, _) -> n) (Counters.all ()) in
  Alcotest.(check (list string))
    "sorted" (List.sort compare names) names

(* --- a minimal JSON parser, enough to load a Chrome trace --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail m = raise (Bad_json (Printf.sprintf "%s at %d" m !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; incr pos
          | Some '\\' -> Buffer.add_char b '\\'; incr pos
          | Some '/' -> Buffer.add_char b '/'; incr pos
          | Some 'n' -> Buffer.add_char b '\n'; incr pos
          | Some 't' -> Buffer.add_char b '\t'; incr pos
          | Some 'r' -> Buffer.add_char b '\r'; incr pos
          | Some 'b' -> Buffer.add_char b '\b'; incr pos
          | Some 'f' -> Buffer.add_char b '\012'; incr pos
          | Some 'u' ->
            (* Keep the escape verbatim; exact code points don't matter
               for well-formedness. *)
            if !pos + 4 >= n then fail "bad \\u escape";
            Buffer.add_string b (String.sub s (!pos - 1) 6);
            pos := !pos + 5
          | _ -> fail "bad escape");
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((key, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* --- export --- *)

let record_sample_spans () =
  Trace.with_span ~cat:"t" "parent" (fun () ->
      advance 0.5;
      Trace.with_span ~cat:"t" ~args:[ ("k", "v\"quoted\"") ] "child"
        (fun () -> advance 0.25));
  let c = Counters.counter "test.export.counter" in
  Counters.add c 42

let test_chrome_json_loads () =
  record_sample_spans ();
  let doc = parse_json (Trace_export.chrome_json ()) in
  let events =
    match member "traceEvents" doc with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "one event per span" (Trace.num_events ())
    (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "complete event" (Some "X")
        (match member "ph" e with Some (Str s) -> Some s | _ -> None);
      let has k = member k e <> None in
      Alcotest.(check bool) "required keys" true
        (has "name" && has "ts" && has "dur" && has "pid" && has "tid"))
    events;
  (match member "counters" doc with
  | Some (Obj fields) ->
    Alcotest.(check bool) "counter exported" true
      (match List.assoc_opt "test.export.counter" fields with
      | Some (Num 42.0) -> true
      | _ -> false)
  | _ -> Alcotest.fail "counters missing");
  (* Timestamps are microseconds relative to the epoch: the child span
     started 0.5 s in. *)
  let child =
    List.find
      (fun e -> member "name" e = Some (Str "child"))
      events
  in
  Alcotest.(check bool) "relative microseconds" true
    (match (member "ts" child, member "dur" child) with
    | Some (Num ts), Some (Num dur) -> ts = 500_000.0 && dur = 250_000.0
    | _ -> false)

let test_write_chrome_roundtrip () =
  record_sample_spans ();
  let path = Filename.temp_file "pdw_trace" ".json" in
  Fun.protect
    (fun () ->
      Trace_export.write_chrome path;
      let text = In_channel.with_open_text path In_channel.input_all in
      match parse_json (String.trim text) with
      | Obj _ -> ()
      | _ -> Alcotest.fail "expected a JSON object")
    ~finally:(fun () -> Sys.remove path)

let test_summary_renders () =
  record_sample_spans ();
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  Trace_export.summary ppf;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents b in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
    at 0
  in
  let mentions needle =
    Alcotest.(check bool) (needle ^ " in summary") true (contains needle)
  in
  mentions "parent";
  mentions "child";
  mentions "test.export.counter"

(* --- counter snapshots --- *)

let test_counter_snapshot_delta () =
  let c = Counters.counter "test.snap.counter" in
  let g = Counters.gauge "test.snap.gauge" in
  Counters.add c 3;
  Counters.set g 5;
  let snap = Counters.snapshot () in
  let d0 = Counters.delta ~since:snap in
  Alcotest.(check bool) "unmoved counter filtered" true
    (not (List.exists (fun (n, _, _) -> n = "test.snap.counter") d0));
  Alcotest.(check bool) "gauge reports its level" true
    (List.exists (fun (n, _, v) -> n = "test.snap.gauge" && v = 5) d0);
  Counters.add c 4;
  Counters.set_max g 9;
  let d = Counters.delta ~since:snap in
  Alcotest.(check bool) "counter reports the increase" true
    (List.exists (fun (n, _, v) -> n = "test.snap.counter" && v = 4) d);
  Alcotest.(check bool) "gauge reports the new level" true
    (List.exists (fun (n, _, v) -> n = "test.snap.gauge" && v = 9) d)

(* --- the shared JSON value --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("f", Json.Float 0.1);
        ("whole", Json.Float 3.0);
        ("s", Json.Str "a \"quoted\"\nline");
        ("b", Json.Bool false);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Int (-1); Json.Float 1e-9 ]);
        ("empty", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error m -> Alcotest.failf "parse: %s" m

(* Control characters (U+0000–U+001F) must leave [Json_export.to_string]
   as \uXXXX escapes and come back intact through the shared parser —
   the service wire protocol ships outcome JSON in exactly this way. *)
let test_json_export_control_chars () =
  let s = String.init 0x20 Char.chr in
  let printed = Pdw_wash.Json_export.to_string (Json.Obj [ ("s", Json.Str s) ]) in
  String.iter
    (fun c ->
      Alcotest.(check bool) "no raw control byte in output" true
        (Char.code c >= 0x20))
    printed;
  match Json.parse printed with
  | Ok (Json.Obj [ ("s", Json.Str s') ]) ->
    Alcotest.(check string) "all 32 control characters survive" s s'
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error m -> Alcotest.failf "parse: %s" m

(* The wire-protocol property: any value printed by [Json_export] parses
   back to the same value with [Pdw_obs.Json.parse].  Floats exercise
   the shortest-round-trip printer; strings exercise escaping. *)
let prop_json_export_roundtrip =
  QCheck2.Test.make
    ~name:"Pdw_obs.Json.parse (Json_export.to_string j) = j" ~count:500
    Json_gen.value
    (fun j ->
      match Json.parse (Pdw_wash.Json_export.to_string j) with
      | Ok j' -> j' = j
      | Error _ -> false)

(* The codec against the reference it replaced ([Json_oracle]): the same
   bytes out of the printer, and the same value or the same error
   message out of the parser, on printed values and on damaged ones. *)
let prop_json_print_oracle =
  QCheck2.Test.make ~name:"Json.to_string = oracle to_string" ~count:1000
    ~print:Json_oracle.to_string Json_gen.value (fun v ->
      String.equal (Json.to_string v) (Json_oracle.to_string v))

let prop_json_parse_oracle =
  QCheck2.Test.make ~name:"Json.parse = oracle parse" ~count:3000
    ~print:(Printf.sprintf "%S") Json_gen.text (fun text ->
      match (Json.parse text, Json_oracle.parse text) with
      | Ok a, Ok b -> a = b && String.equal (Json_oracle.to_string a) (Json_oracle.to_string b)
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* [Json.scan] accepts a subset of what [Json.parse] does: what it
   accepts as a whole text, [parse] accepts too. *)
let prop_json_scan_within_parse =
  QCheck2.Test.make ~name:"Json.scan accepts only what Json.parse accepts"
    ~count:3000 ~print:(Printf.sprintf "%S") Json_gen.text (fun text ->
      let whole = Json.scan text 0 = String.length text in
      (not whole) || Result.is_ok (Json.parse text))

let test_json_scan_cases () =
  List.iter
    (fun (text, expect) ->
      Alcotest.(check int) (Printf.sprintf "scan %S" text) expect (Json.scan text 0))
    [
      ("{}", 2); ("[]", 2); ("[1, 2 ,3]", 9); ("{\"a\" : [true,false,null]}", 25);
      ("-0.5e+3,", 7); ("0", 1); ("01", 1); ("\"\\u00e9\"", 8);
      ("+1", -1); ("1.", -1); (".5", -1); ("-", -1); ("1e", -1); ("[1,]", -1);
      ("{\"a\"}", -1); ("\"\001\"", -1); ("\"\\x\"", -1); ("\"\\u12\"", -1);
      ("tru", -1); ("", -1); (" 1", -1); ("\"abc", -1);
    ];
  Alcotest.(check int) "offset past the value" 9 (Json.scan "x:[1,[2]]}" 2);
  Alcotest.(check int) "negative offset" (-1) (Json.scan "1" (-1))

(* --- the decision ledger --- *)

let run_planner_with_events () =
  Events.reset ();
  Events.set_enabled true;
  let layout = Pdw_biochip.Layout_builder.fig2_layout () in
  let s =
    Pdw_synth.Synthesis.synthesize ~layout
      (Pdw_assay.Benchmarks.motivating ())
  in
  ignore (Pdw_wash.Pdw.optimize s);
  Events.set_enabled false;
  Events.events ()

let test_events_jsonl_well_formed () =
  let events = run_planner_with_events () in
  Alcotest.(check bool) "ledger non-empty" true (events <> []);
  let path = Filename.temp_file "pdw_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Events.write_jsonl path;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per event" (List.length events)
        (List.length lines);
      List.iteri
        (fun i line ->
          match parse_json line with
          | Obj fields ->
            Alcotest.(check bool)
              (Printf.sprintf "line %d seq" i)
              true
              (List.assoc_opt "seq" fields = Some (Num (float_of_int i)));
            Alcotest.(check bool)
              (Printf.sprintf "line %d type" i)
              true
              (match List.assoc_opt "type" fields with
              | Some (Str _) -> true
              | _ -> false)
          | _ -> Alcotest.failf "line %d is not a JSON object" i)
        lines;
      match Events.load_jsonl path with
      | Ok loaded ->
        Alcotest.(check bool) "ledger round-trips" true (loaded = events)
      | Error m -> Alcotest.failf "load_jsonl: %s" m)

let test_event_line_roundtrip () =
  let samples =
    [
      Events.Necessity_verdict
        {
          round = 2;
          cell = (3, 4);
          residue = "r1";
          deposited_at = 7;
          source = "task#3";
          verdict = "needed";
          rule = "sensitive-incompatible-flow";
          next_use = Some "op5";
          next_start = Some 12;
          next_fluid = Some "filtered(r1)";
          parked = false;
        };
      Events.Necessity_verdict
        {
          round = 0;
          cell = (0, 0);
          residue = "s \"quoted\"";
          deposited_at = 0;
          source = "task#0";
          verdict = "type1:unused";
          rule = "no-later-use";
          next_use = None;
          next_start = None;
          next_fluid = None;
          parked = true;
        };
      Events.Merge_accept
        {
          round = 1;
          removal_task = 9;
          group = 2;
          base_len = 6;
          enlarged_len = 8;
          budget = 9;
          window = (4, 11);
          spans_hold = true;
        };
      Events.Merge_reject
        {
          round = 1;
          removal_task = 5;
          reason = "no-overlapping-window";
          removal_window = Some (1, 2);
          group = Some 0;
          blocking_window = Some (2, 5);
        };
      Events.Merge_reject
        {
          round = 3;
          removal_task = 6;
          reason = "no-covering-path";
          removal_window = None;
          group = None;
          blocking_window = None;
        };
      Events.Wash_path
        {
          round = 1;
          wash_task = 19;
          group = 0;
          targets = [ (2, 2); (3, 2) ];
          window = (2, 5);
          finder = "heuristic";
          flow_port = 0;
          waste_port = 5;
          flow_candidates = 4;
          waste_candidates = 4;
          length = 6;
          merged_removals = [ 7; 8 ];
          contaminators = [ "task#1" ];
          use_keys = [ "task#2"; "op1" ];
        };
      Events.Storage_hold
        {
          round = 0;
          park_task = 11;
          cell = (5, 1);
          fluid = "mix(r1,r2)";
          hold_start = 14;
          hold_until = 31;
        };
      Events.Reschedule_shift
        { round = 2; key = "op3"; from_start = 10; to_start = 14 };
      Events.Ilp_incumbent { objective = -12.5; nodes_expanded = 431 };
    ]
  in
  List.iteri
    (fun i e ->
      let line = Events.to_line ~seq:i e in
      match Events.of_line line with
      | Ok (seq, e') ->
        Alcotest.(check int) "seq round-trips" i seq;
        Alcotest.(check bool)
          (Printf.sprintf "event %d round-trips" i)
          true (e = e')
      | Error m -> Alcotest.failf "of_line (event %d): %s" i m)
    samples

(* --- latency histograms --- *)

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.record h) values;
  h

(* Two histograms agree iff their non-empty buckets, totals and
   (fixed-point, hence exactly comparable) sums all match. *)
let hist_equal a b =
  Histogram.buckets a = Histogram.buckets b
  && Histogram.count a = Histogram.count b
  && Histogram.sum a = Histogram.sum b

let test_histogram_create_validation () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "create accepted %s" what
  in
  expect_invalid "lo = 0" (fun () -> Histogram.create ~lo:0.0 ());
  expect_invalid "lo > hi" (fun () -> Histogram.create ~lo:10.0 ~hi:1.0 ());
  expect_invalid "rel_err = 0" (fun () -> Histogram.create ~rel_err:0.0 ());
  expect_invalid "rel_err = 1" (fun () -> Histogram.create ~rel_err:1.0 ())

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "sum" 0.0 (Histogram.sum h);
  Alcotest.(check (float 0.)) "mean" 0.0 (Histogram.mean h);
  Alcotest.(check (float 0.)) "quantile" 0.0 (Histogram.quantile h 0.5);
  Alcotest.(check bool) "no buckets" true (Histogram.buckets h = []);
  match Histogram.cumulative h with
  | [ (bound, 0) ] -> Alcotest.(check (float 0.)) "+Inf entry" infinity bound
  | _ -> Alcotest.fail "empty cumulative should be the +Inf entry alone"

let test_histogram_edges () =
  let h = Histogram.create () in
  Histogram.record h Float.nan;
  Histogram.record h (-5.0);
  Histogram.record h 0.0;
  Alcotest.(check int) "NaN, negative and zero all counted" 3
    (Histogram.count h);
  let cfg = Histogram.config h in
  Alcotest.(check (float 1e-12)) "underflow reports lo" cfg.Histogram.lo
    (Histogram.quantile h 0.99);
  Histogram.record h 1e12 (* far past hi *);
  (match List.rev (Histogram.buckets h) with
  | (bound, 1) :: _ ->
    Alcotest.(check (float 0.)) "overflow bucket is open-ended" infinity bound
  | _ -> Alcotest.fail "overflow bucket missing");
  Alcotest.(check bool) "overflow quantile reports the finite top bound" true
    (Float.is_finite (Histogram.quantile h 1.0))

let test_histogram_mean_sum () =
  let h = hist_of [ 2.0; 4.0; 6.0 ] in
  (* The sum is fixed point in units of 2^-20: exact to ~1e-6 here. *)
  Alcotest.(check (float 1e-4)) "sum" 12.0 (Histogram.sum h);
  Alcotest.(check (float 1e-4)) "mean" 4.0 (Histogram.mean h)

let test_histogram_config_mismatch () =
  let a = Histogram.create () and b = Histogram.create ~rel_err:0.01 () in
  match Histogram.merge a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merge accepted differing configs"

let test_histogram_cumulative () =
  let h = hist_of [ 0.5; 1.0; 2.0; 2.0; 40.0 ] in
  let cum = Histogram.cumulative h in
  let rec monotone = function
    | (b1, c1) :: ((b2, c2) :: _ as rest) ->
      b1 < b2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "bounds and counts non-decreasing" true (monotone cum);
  match List.rev cum with
  | (bound, total) :: _ ->
    Alcotest.(check (float 0.)) "ends at +Inf" infinity bound;
    Alcotest.(check int) "+Inf counts everything" (Histogram.count h) total
  | [] -> Alcotest.fail "cumulative came back empty"

(* Values well inside [lo, hi] so the relative-error bound applies. *)
let hist_values_gen =
  QCheck2.Gen.(list_size (1 -- 200) (float_range 0.01 100_000.0))

(* The accuracy contract: the reported quantile is the representative
   of the bucket holding the sample the retired sorted-array code would
   have picked (rank ⌊q·(n-1)+0.5⌋), so it is within a factor 1+α of
   that exact sample. *)
let prop_histogram_quantile_oracle =
  QCheck2.Test.make
    ~name:"Histogram.quantile within rel_err of the sorted-array rank"
    ~count:300
    QCheck2.Gen.(pair hist_values_gen (float_range 0.0 1.0))
    (fun (values, q) ->
      let h = hist_of values in
      let arr = Array.of_list values in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank =
        min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5))
      in
      let exact = arr.(rank) in
      let est = Histogram.quantile h q in
      let rel_err = (Histogram.config h).Histogram.rel_err in
      est >= (exact /. (1.0 +. rel_err)) -. 1e-9
      && est <= (exact *. (1.0 +. rel_err)) +. 1e-9)

let prop_histogram_merge_commutes =
  QCheck2.Test.make ~name:"Histogram.merge commutes" ~count:100
    QCheck2.Gen.(pair hist_values_gen hist_values_gen)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      hist_equal (Histogram.merge a b) (Histogram.merge b a))

let prop_histogram_merge_assoc =
  QCheck2.Test.make ~name:"Histogram.merge associates" ~count:100
    QCheck2.Gen.(triple hist_values_gen hist_values_gen hist_values_gen)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      hist_equal
        (Histogram.merge (Histogram.merge a b) c)
        (Histogram.merge a (Histogram.merge b c)))

(* --- the monotonic clock --- *)

let test_clock_monotone () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.fail "monotonic clock went backwards";
    prev := t
  done;
  let since = Clock.now_ms () in
  Alcotest.(check bool) "elapsed_ms non-negative" true
    (Clock.elapsed_ms ~since >= 0.0);
  Alcotest.(check bool) "now_ms is now in milliseconds" true
    (Float.abs ((Clock.now () *. 1000.0) -. Clock.now_ms ()) < 100.0)

(* --- request traces --- *)

let mk_record ?(stages = [ ("cache", 0.02); ("queue", 1.5) ]) ~outcome
    ~total_ms id =
  {
    Reqtrace.id;
    digest = Printf.sprintf "d%04x" id;
    outcome;
    total_ms;
    stages;
  }

let test_reqtrace_roundtrip () =
  List.iteri
    (fun i outcome ->
      let r = mk_record ~outcome ~total_ms:(0.5 +. float_of_int i) i in
      match Reqtrace.of_line (Reqtrace.to_line r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "outcome %s round-trips"
             (Reqtrace.outcome_to_string outcome))
          true (r = r')
      | Error m -> Alcotest.failf "of_line: %s" m)
    Reqtrace.[ Hit; Planned; Coalesced; Shed; Timeout; Failed ]

let test_reqtrace_ring () =
  let ring = Reqtrace.create_ring ~capacity:4 () in
  Alcotest.(check bool) "empty ring" true (Reqtrace.recent ring = []);
  for i = 1 to 10 do
    Reqtrace.note ring
      (mk_record ~outcome:Reqtrace.Planned ~total_ms:(float_of_int i) i)
  done;
  Alcotest.(check int) "seen counts every note" 10 (Reqtrace.seen ring);
  let ids = List.map (fun r -> r.Reqtrace.id) (Reqtrace.recent ring) in
  Alcotest.(check (list int)) "bounded, newest first" [ 10; 9; 8; 7 ] ids

(* The ledger's byte-inertness: disabled (the default), noting a slow
   request writes nothing anywhere; enabled, only records at or above
   the threshold land; disabling again stops the flow. *)
let test_reqtrace_slow_log_gating () =
  let ring = Reqtrace.create_ring () in
  let path = Filename.temp_file "pdw_slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Reqtrace.disable_slow_log ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "ledger off by default" false
        (Reqtrace.slow_log_enabled ());
      Reqtrace.note ring (mk_record ~outcome:Reqtrace.Planned ~total_ms:900.0 1);
      Alcotest.(check int) "disabled ledger writes nothing" 0
        (Unix.stat path).Unix.st_size;
      Reqtrace.set_slow_log ~threshold_ms:100.0 path;
      Alcotest.(check bool) "enabled" true (Reqtrace.slow_log_enabled ());
      Reqtrace.note ring (mk_record ~outcome:Reqtrace.Hit ~total_ms:5.0 2);
      Reqtrace.note ring (mk_record ~outcome:Reqtrace.Planned ~total_ms:250.0 3);
      Reqtrace.disable_slow_log ();
      Reqtrace.note ring (mk_record ~outcome:Reqtrace.Planned ~total_ms:999.0 4);
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      match lines with
      | [ line ] -> (
        match Reqtrace.of_line line with
        | Ok r ->
          Alcotest.(check int) "only the slow request landed" 3 r.Reqtrace.id
        | Error m -> Alcotest.failf "ledger line unparseable: %s" m)
      | ls -> Alcotest.failf "expected 1 ledger line, got %d" (List.length ls))

(* --- regression: instrumentation never changes planner output --- *)

let planner_json () =
  let layout = Pdw_biochip.Layout_builder.fig2_layout () in
  let s =
    Pdw_synth.Synthesis.synthesize ~layout
      (Pdw_assay.Benchmarks.motivating ())
  in
  let pdw = Pdw_wash.Pdw.optimize s in
  let dawo = Pdw_wash.Dawo.optimize s in
  Pdw_wash.Json_export.to_string
    (Pdw_wash.Json_export.outcome pdw)
  ^ "\n"
  ^ Pdw_wash.Json_export.to_string (Pdw_wash.Json_export.outcome dawo)

let test_tracing_is_metrics_inert () =
  Trace.set_enabled false;
  Counters.set_enabled false;
  let plain = planner_json () in
  Trace.set_enabled true;
  Counters.set_enabled true;
  let traced = planner_json () in
  Alcotest.(check bool) "spans were recorded" true (Trace.num_events () > 0);
  Alcotest.(check string) "byte-identical planner output" plain traced

(* The ledger's side of the same guarantee: recording events (then
   discarding them) leaves the planner's JSON output byte-identical. *)
let test_events_are_metrics_inert () =
  Events.set_enabled false;
  Events.reset ();
  let plain = planner_json () in
  Events.set_enabled true;
  let recorded = planner_json () in
  Alcotest.(check bool) "events were recorded" true (Events.num_events () > 0);
  Events.set_enabled false;
  Events.reset ();
  Alcotest.(check string) "byte-identical planner output" plain recorded

(* --- the exposition parser and merger behind the fleet scrape --- *)

module Expo = Pdw_obs.Expo

let build_exposition ~count ~shard_count ~gauge ~values =
  let e = Expo.create () in
  Expo.counter e ~name:"t_requests_total" ~help:"requests"
    [ ([], count); ([ ("shard", "0") ], shard_count) ];
  Expo.gauge e ~name:"t_in_flight" ~help:"in flight" [ ([], gauge) ];
  let h = Histogram.create () in
  List.iter (Histogram.record h) values;
  Expo.histogram e ~name:"t_latency_ms" ~help:"latency" h;
  Expo.contents e

(* [parse] reads exactly the dialect the builder writes; [write] of the
   parsed families reproduces the text byte for byte. *)
let test_expo_parse_write_roundtrip () =
  let text =
    build_exposition ~count:3.0 ~shard_count:2.0 ~gauge:1.5
      ~values:[ 0.5; 3.0; 250.0 ]
  in
  match Expo.parse text with
  | Error m -> Alcotest.fail m
  | Ok fams ->
    Alcotest.(check int) "three families" 3 (List.length fams);
    (match fams with
    | [ c; g; h ] ->
      Alcotest.(check bool) "counter kind" true (c.Expo.fam_kind = Expo.Counter);
      Alcotest.(check bool) "gauge kind" true (g.Expo.fam_kind = Expo.Gauge);
      Alcotest.(check bool) "histogram kind" true
        (h.Expo.fam_kind = Expo.Histogram);
      Alcotest.(check int) "counter carries both samples" 2
        (List.length c.Expo.fam_samples)
    | _ -> Alcotest.fail "unexpected family split");
    let e2 = Expo.create () in
    Expo.write e2 fams;
    Alcotest.(check string) "write (parse text) = text" text
      (Expo.contents e2)

(* Merging two shard expositions sums samples with equal (name, labels)
   keys — and for histograms that is exactly [Histogram.merge] expressed
   on the text surface. *)
let test_expo_merge_sums () =
  let a_values = [ 0.5; 3.0 ] and b_values = [ 100.0; 3.0; 0.1 ] in
  let a =
    build_exposition ~count:3.0 ~shard_count:2.0 ~gauge:1.0 ~values:a_values
  in
  let b =
    build_exposition ~count:4.0 ~shard_count:1.0 ~gauge:0.5 ~values:b_values
  in
  let parse text =
    match Expo.parse text with
    | Ok fams -> fams
    | Error m -> Alcotest.fail m
  in
  let merged = Expo.merge [ parse a; parse b ] in
  let sample fam_name sample_name labels =
    match List.find_opt (fun f -> f.Expo.fam_name = fam_name) merged with
    | None -> Alcotest.failf "missing merged family %s" fam_name
    | Some f -> (
      match
        List.find_opt
          (fun s ->
            s.Expo.sample_name = sample_name && s.Expo.labels = labels)
          f.Expo.fam_samples
      with
      | Some s -> s.Expo.value
      | None -> Alcotest.failf "missing merged sample %s" sample_name)
  in
  Alcotest.(check (float 0.)) "unlabelled counters sum" 7.0
    (sample "t_requests_total" "t_requests_total" []);
  Alcotest.(check (float 0.)) "labelled counters sum per label set" 3.0
    (sample "t_requests_total" "t_requests_total" [ ("shard", "0") ]);
  Alcotest.(check (float 0.)) "gauges sum to the fleet total" 1.5
    (sample "t_in_flight" "t_in_flight" []);
  Alcotest.(check (float 0.)) "histogram counts sum" 5.0
    (sample "t_latency_ms" "t_latency_ms_count" []);
  (* The text-surface merge agrees with the histogram-level merge on
     every bucket line, [+Inf] included. *)
  let ha = Histogram.create () and hb = Histogram.create () in
  List.iter (Histogram.record ha) a_values;
  List.iter (Histogram.record hb) b_values;
  let oracle = Histogram.merge ha hb in
  List.iter
    (fun (le, n) ->
      let le_label = Expo.number le in
      Alcotest.(check (float 0.))
        (Printf.sprintf "bucket le=%s matches Histogram.merge" le_label)
        (float_of_int n)
        (sample "t_latency_ms" "t_latency_ms_bucket" [ ("le", le_label) ]))
    (Histogram.cumulative oracle);
  Alcotest.(check (float 0.)) "histogram sums add" (Histogram.sum oracle)
    (sample "t_latency_ms" "t_latency_ms_sum" [])

let test_expo_parse_rejects_garbage () =
  List.iter
    (fun text ->
      match Expo.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed exposition %S" text)
    [
      "t_total{le=\"0.5\" 3\n";
      (* unclosed label set *)
      "t_total notanumber\n";
      "t_total{le=\"0.5}\n";
      (* unterminated label value *)
    ]

let () =
  Alcotest.run "pdw_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick (with_obs test_span_nesting);
          Alcotest.test_case "exception safety" `Quick
            (with_obs test_span_exception_safety);
          Alcotest.test_case "args" `Quick (with_obs test_span_args);
          Alcotest.test_case "disabled is a no-op" `Quick
            (with_obs test_disabled_records_nothing);
          Alcotest.test_case "a span counts its own domain's words" `Quick
            (with_obs test_span_words_own_domain);
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick (with_obs test_counter_basics);
          Alcotest.test_case "all sorted" `Quick
            (with_obs test_counters_all_sorted);
          Alcotest.test_case "snapshot delta" `Quick
            (with_obs test_counter_snapshot_delta);
          QCheck_alcotest.to_alcotest prop_counter_monotone;
        ] );
      ( "events",
        [
          Alcotest.test_case "json value round-trips" `Quick
            (with_obs test_json_roundtrip);
          Alcotest.test_case "json export escapes control characters" `Quick
            (with_obs test_json_export_control_chars);
          QCheck_alcotest.to_alcotest prop_json_export_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_print_oracle;
          QCheck_alcotest.to_alcotest prop_json_parse_oracle;
          QCheck_alcotest.to_alcotest prop_json_scan_within_parse;
          Alcotest.test_case "scan accepts RFC 8259 values only" `Quick
            test_json_scan_cases;
          Alcotest.test_case "jsonl well-formed and round-trips" `Quick
            (with_obs test_events_jsonl_well_formed);
          Alcotest.test_case "every constructor round-trips" `Quick
            (with_obs test_event_line_roundtrip);
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json loads" `Quick
            (with_obs test_chrome_json_loads);
          Alcotest.test_case "write_chrome round-trips" `Quick
            (with_obs test_write_chrome_roundtrip);
          Alcotest.test_case "summary renders" `Quick
            (with_obs test_summary_renders);
        ] );
      ( "histogram",
        [
          Alcotest.test_case "create validates its config" `Quick
            test_histogram_create_validation;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
          Alcotest.test_case "underflow and overflow" `Quick
            test_histogram_edges;
          Alcotest.test_case "sum and mean" `Quick test_histogram_mean_sum;
          Alcotest.test_case "merge rejects differing configs" `Quick
            test_histogram_config_mismatch;
          Alcotest.test_case "cumulative form" `Quick test_histogram_cumulative;
          QCheck_alcotest.to_alcotest prop_histogram_quantile_oracle;
          QCheck_alcotest.to_alcotest prop_histogram_merge_commutes;
          QCheck_alcotest.to_alcotest prop_histogram_merge_assoc;
        ] );
      ( "expo",
        [
          Alcotest.test_case "parse/write round-trip" `Quick
            test_expo_parse_write_roundtrip;
          Alcotest.test_case "merge sums counters, gauges, buckets" `Quick
            test_expo_merge_sums;
          Alcotest.test_case "malformed expositions rejected" `Quick
            test_expo_parse_rejects_garbage;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
      ( "reqtrace",
        [
          Alcotest.test_case "every outcome round-trips" `Quick
            test_reqtrace_roundtrip;
          Alcotest.test_case "bounded ring, newest first" `Quick
            test_reqtrace_ring;
          Alcotest.test_case "slow-request ledger gating" `Quick
            test_reqtrace_slow_log_gating;
        ] );
      ( "regression",
        [
          Alcotest.test_case "tracing never changes metrics" `Quick
            (with_obs test_tracing_is_metrics_inert);
          Alcotest.test_case "the ledger never changes metrics" `Quick
            (with_obs test_events_are_metrics_inert);
        ] );
    ]
