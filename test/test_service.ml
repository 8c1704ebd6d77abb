(* Tests for the planning service: wire framing, protocol codecs and
   digests, the LRU plan cache, admission control, and the daemon
   end-to-end over a real Unix socket — cache hits, coalescing,
   byte-identity with one-shot runs, explicit shedding under load, and
   per-request timeouts. *)

module Wire = Pdw_service.Wire
module Protocol = Pdw_service.Protocol
module Plan_cache = Pdw_service.Plan_cache
module Plan_store = Pdw_service.Plan_store
module Router = Pdw_service.Router
module Admission = Pdw_service.Admission
module Engine = Pdw_service.Engine
module Server = Pdw_service.Server
module Client = Pdw_service.Client
module Loadgen = Pdw_service.Loadgen
module Json = Pdw_obs.Json
module Pdw = Pdw_wash.Pdw

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* --- wire framing --- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

(* One frame through the one reader, [Wire.Buffered]. *)
let read_one fd = Wire.Buffered.read_frame (Wire.Buffered.create fd)

(* Write from a separate thread: payloads larger than the pipe buffer
   would otherwise deadlock a single-threaded write-then-read. *)
let frame_roundtrip payload =
  with_pipe @@ fun r w ->
  let writer = Thread.create (fun () -> Wire.write_frame w payload) () in
  let got = read_one r in
  Thread.join writer;
  match got with
  | Some got -> Alcotest.(check string) "frame round-trips" payload got
  | None -> Alcotest.fail "unexpected end of stream"

let test_wire_roundtrip () =
  frame_roundtrip "";
  frame_roundtrip "{\"op\":\"ping\"}";
  (* Every byte value, control characters included: framing is
     byte-count-based, so nothing in the payload can confuse it. *)
  frame_roundtrip (String.init 256 Char.chr);
  frame_roundtrip (String.make (1 lsl 20) 'x')

let test_wire_eof () =
  with_pipe @@ fun r w ->
  Unix.close w;
  Alcotest.(check bool) "clean EOF is None" true (read_one r = None)

let test_wire_bad_header () =
  let expect_protocol_error raw =
    with_pipe @@ fun r w ->
    ignore (Unix.write_substring w raw 0 (String.length raw));
    Unix.close w;
    match read_one r with
    | exception Wire.Protocol_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted bad header %S" raw)
  in
  expect_protocol_error "12x\npayload";
  expect_protocol_error "\n";
  expect_protocol_error "999999999999\n";
  (* Truncated payload: header promises more bytes than the stream has. *)
  expect_protocol_error "10\nabc"

(* Batched framing: many frames land in the writer's buffer, one flush
   moves them, and the buffered reader hands them all out of (at most)
   one refill.  A 1 KiB read buffer (the floor) forces payloads bigger
   than the buffer through the straight-from-fd spill path. *)
let test_wire_buffered_batch () =
  let payloads =
    [ ""; "{\"op\":\"ping\"}"; String.init 256 Char.chr; String.make 4096 'y' ]
  in
  with_pipe @@ fun r w ->
  let wr = Wire.Batch.create w in
  List.iter (Wire.Batch.add_frame wr) payloads;
  Alcotest.(check bool) "frames pending before flush" true
    (Wire.Batch.pending wr > 0);
  let writer =
    Thread.create
      (fun () ->
        Wire.Batch.flush wr;
        Unix.close w)
      ()
  in
  let rd = Wire.Buffered.create ~buf_size:1024 r in
  List.iteri
    (fun i expected ->
      match Wire.Buffered.read_frame rd with
      | Some got ->
        Alcotest.(check string) (Printf.sprintf "frame %d" i) expected got
      | None -> Alcotest.failf "eof before frame %d" i)
    payloads;
  Alcotest.(check bool) "clean EOF after the batch" true
    (Wire.Buffered.read_frame rd = None);
  Thread.join writer

(* [has_frame] looks only at bytes already buffered — it must say yes
   while complete frames wait, and no once the buffer is drained. *)
let test_wire_has_frame () =
  with_pipe @@ fun r w ->
  let wr = Wire.Batch.create w in
  Wire.Batch.add_frame wr "one";
  Wire.Batch.add_frame wr "two";
  Wire.Batch.flush wr;
  let rd = Wire.Buffered.create r in
  (match Wire.Buffered.read_frame rd with
  | Some got -> Alcotest.(check string) "first frame" "one" got
  | None -> Alcotest.fail "eof");
  Alcotest.(check bool) "second frame already buffered" true
    (Wire.Buffered.has_frame rd);
  (match Wire.Buffered.read_frame rd with
  | Some got -> Alcotest.(check string) "second frame" "two" got
  | None -> Alcotest.fail "eof");
  Alcotest.(check bool) "buffer drained" false (Wire.Buffered.has_frame rd);
  Unix.close w

(* --- protocol codecs and digests --- *)

let spec_of ?method_ ?config name = Protocol.spec ?method_ ?config (Protocol.Benchmark name)

let test_protocol_request_roundtrip () =
  let reqs =
    [
      Protocol.Submit { spec = spec_of "pcr"; no_cache = false };
      Protocol.Submit
        {
          spec =
            Protocol.spec ~method_:`Dawo
              ~config:{ Pdw.default_config with Pdw.dissolution = 3 }
              (Protocol.Inline "assay text\nwith lines");
          no_cache = true;
        };
      (* park already in canonical order: the wire form sorts and
         dedups, so only a canonical set round-trips structurally. *)
      Protocol.Submit
        { spec = Protocol.spec ~park:[ 1; 3 ] (Protocol.Benchmark "storageshuttle");
          no_cache = false };
      Protocol.Burn { ms = 42 };
      Protocol.Stats;
      Protocol.Version;
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok got ->
        Alcotest.(check bool) "request round-trips" true (got = req)
      | Error m -> Alcotest.fail m)
    reqs

let test_protocol_digest () =
  let d = Protocol.digest in
  Alcotest.(check string) "benchmark name is case-insensitive"
    (d (spec_of "PCR")) (d (spec_of "pcr"));
  Alcotest.(check bool) "different benchmarks differ" true
    (d (spec_of "pcr") <> d (spec_of "ivd"));
  Alcotest.(check bool) "method changes the digest" true
    (d (spec_of "pcr") <> d (spec_of ~method_:`Dawo "pcr"));
  Alcotest.(check bool) "config changes the digest" true
    (d (spec_of "pcr")
    <> d (spec_of ~config:{ Pdw.default_config with Pdw.dissolution = 3 } "pcr"));
  (* The serve bench spreads its planner campaign across shards with
     tiny weight nudges; those variants must really get distinct
     digests (floats print in shortest round-trip form, so an epsilon
     always shows up in the canonical JSON). *)
  Alcotest.(check bool) "an alpha epsilon changes the digest" true
    (d (spec_of "pcr")
    <> d
         (spec_of
            ~config:
              { Pdw.default_config with
                Pdw.alpha = Pdw.default_config.Pdw.alpha +. 1e-9 }
            "pcr"))

(* The satellite guarantee of the storage subsystem: a storage spec and
   its storage-free projection are different planning problems and must
   never share a digest — a cached storage-blind plan answering a
   storage request (or vice versa) would serve the wrong chip. *)
let test_protocol_storage_digest () =
  let d = Protocol.digest in
  List.iter
    (fun name ->
      let stored = Protocol.spec ~park:[ 0 ] (Protocol.Benchmark name) in
      let plain = { stored with Protocol.park = [] } in
      Alcotest.(check bool)
        (name ^ ": storage spec never aliases its storage-free projection")
        true
        (d stored <> d plain))
    [ "pcr"; "storageshuttle"; "storageladder"; "storageburst" ];
  Alcotest.(check string) "park order and duplicates are canonicalized"
    (d (Protocol.spec ~park:[ 3; 1; 1 ] (Protocol.Benchmark "pcr")))
    (d (Protocol.spec ~park:[ 1; 3 ] (Protocol.Benchmark "pcr")));
  Alcotest.(check bool) "different park sets differ" true
    (d (Protocol.spec ~park:[ 1 ] (Protocol.Benchmark "pcr"))
    <> d (Protocol.spec ~park:[ 2 ] (Protocol.Benchmark "pcr")));
  (* The canonical form carries its own revision, so even an empty park
     set digests differently from any pre-storage build's form. *)
  match Protocol.canonical_json (spec_of "pcr") with
  | Json.Obj fields ->
    Alcotest.(check bool) "spec_rev stamped into the canonical form" true
      (List.assoc_opt "spec_rev" fields = Some (Json.Int Protocol.spec_rev));
    Alcotest.(check bool) "park field present even when empty" true
      (List.assoc_opt "park" fields = Some (Json.Arr []))
  | _ -> Alcotest.fail "canonical form is not an object"

let test_protocol_rejects_bad_park () =
  let submit park_json =
    Protocol.request_of_json
      (Json.Obj
         [
           ("op", Json.Str "submit");
           ("benchmark", Json.Str "pcr");
           ("park", park_json);
         ])
  in
  (match submit (Json.Str "2") with
  | Error m ->
    Alcotest.(check bool) "non-array park named" true
      (contains ~needle:"park" m)
  | Ok _ -> Alcotest.fail "accepted a non-array park");
  (match submit (Json.Arr [ Json.Str "two" ]) with
  | Error m ->
    Alcotest.(check bool) "non-int park element named" true
      (contains ~needle:"park" m)
  | Ok _ -> Alcotest.fail "accepted a non-int park element");
  match submit (Json.Arr [ Json.Int (-1) ]) with
  | Error m ->
    Alcotest.(check bool) "negative id named" true
      (contains ~needle:"park" m)
  | Ok _ -> Alcotest.fail "accepted a negative op id"

(* Every name [pdw list] prints resolves through the engine's synthesis
   stage — the motivating example onto the hand-built Fig. 2(a) chip,
   every other one onto a synthesized chip — and an unknown name comes
   back as an error that names them all. *)
let test_engine_resolves_every_benchmark () =
  let module Layout = Pdw_biochip.Layout in
  let fig2 = Layout.render (Pdw_biochip.Layout_builder.fig2_layout ()) in
  let named = Pdw_assay.Benchmarks.named () in
  List.iter
    (fun (name, _) ->
      match Engine.synthesize (spec_of name) with
      | Error m -> Alcotest.failf "%s: %s" name m
      | Ok s ->
        Alcotest.(check bool)
          (name ^ " on the Fig. 2(a) chip iff it is the motivating example")
          (name = "Motivating")
          (String.equal fig2
             (Layout.render s.Pdw_synth.Synthesis.layout)))
    named;
  match Engine.synthesize (spec_of "nope") with
  | Ok _ -> Alcotest.fail "an unknown benchmark resolved"
  | Error m ->
    List.iter
      (fun (name, _) ->
        Alcotest.(check bool) ("error names " ^ name) true
          (contains ~needle:name m))
      named

(* Parking through the engine: a parked spec plans successfully and its
   outcome differs from the storage-free plan of the same assay, while
   a bad op id comes back as a typed error, not a worker crash. *)
let test_engine_park () =
  let plain = spec_of "pcr" in
  let parked = Protocol.spec ~park:[ 0 ] (Protocol.Benchmark "pcr") in
  match (Engine.plan plain, Engine.plan parked) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "parked plan differs from storage-free plan" true
      (not (String.equal a b));
    (match Engine.plan (Protocol.spec ~park:[ 999 ] (Protocol.Benchmark "pcr"))
     with
    | Error m ->
      Alcotest.(check bool) "bad op id is a typed error" true
        (contains ~needle:"park" m)
    | Ok _ -> Alcotest.fail "planned a park of a nonexistent op")
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_protocol_rejects_unknown_config () =
  let j =
    Json.Obj
      [
        ("op", Json.Str "submit");
        ("benchmark", Json.Str "pcr");
        ("config", Json.Obj [ ("disolution", Json.Int 3) ]);
      ]
  in
  match Protocol.request_of_json j with
  | Error m ->
    Alcotest.(check bool) "error names the field" true
      (contains ~needle:"disolution" m)
  | Ok _ -> Alcotest.fail "accepted a misspelled config field"

(* --- reply frames --- *)

(* The decode [reply_of_string] replaces: parse the whole frame, then
   read the reply out of the tree. *)
let tree_decode frame =
  match Json.parse frame with
  | Ok j -> Protocol.reply_of_json j
  | Error m -> Error m

let plan_gen =
  let open QCheck2.Gen in
  let+ outcome = map Json.to_string Json_gen.obj
  and+ cached = bool
  and+ coalesced = bool
  and+ tier = oneofl [ Protocol.Memory; Protocol.Store; Protocol.Planned ]
  and+ digest =
    oneof [ map (fun s -> Digest.to_hex (Digest.string s)) string; Json_gen.string_gen ]
  and+ wall_ms = Json_gen.float_gen in
  Protocol.Plan { cached; coalesced; tier; digest; wall_ms; outcome }

let prop_reply_of_string_inverse =
  QCheck2.Test.make ~name:"reply_of_string inverts reply_to_string" ~count:500
    ~print:Protocol.reply_to_string plan_gen (fun r ->
      let frame = Protocol.reply_to_string r in
      Protocol.reply_of_string frame = Ok r && tree_decode frame = Ok r)

(* Plan frames with one defect: anywhere, in the envelope alone, or an
   envelope whose fields come in another order. *)
let damaged_frame_gen =
  let open QCheck2.Gen in
  let* r = plan_gen in
  let frame = Protocol.reply_to_string r in
  let head =
    let key = "\"outcome\":" in
    let rec find i = if String.sub frame i (String.length key) = key then i else find (i + 1) in
    find 0 + String.length key
  in
  oneof
    [
      Json_gen.damage frame;
      map
        (fun h -> h ^ String.sub frame head (String.length frame - head))
        (Json_gen.damage (String.sub frame 0 head));
      (match Protocol.reply_to_json r with
      | Json.Obj fields -> map (fun fs -> Json.to_string (Json.Obj fs)) (shuffle_l fields)
      | j -> return (Json.to_string j));
    ]

(* Plans compare with their outcome in canonical spelling: the fast
   path hands back the outcome bytes as framed, the tree decode prints
   the parsed outcome again. *)
let canonical = function
  | Ok (Protocol.Plan p) ->
    let outcome =
      match Json.parse p.outcome with Ok j -> Json.to_string j | Error _ -> p.outcome
    in
    Ok (Protocol.Plan { p with outcome })
  | r -> r

let prop_reply_of_string_damaged =
  QCheck2.Test.make ~name:"reply_of_string errs exactly when the tree decode errs"
    ~count:2000 ~print:(Printf.sprintf "%S") damaged_frame_gen (fun frame ->
      match (Protocol.reply_of_string frame, tree_decode frame) with
      | Ok _, Error _ | Error _, Ok _ -> false
      | Error _, Error _ -> true
      | (Ok _ as a), (Ok _ as b) -> canonical a = canonical b)

let test_reply_of_string_other_replies () =
  List.iter
    (fun r ->
      let frame = Protocol.reply_to_string r in
      if Protocol.reply_of_string frame <> Ok r then
        Alcotest.failf "%s did not round-trip" frame)
    [
      Protocol.Shed { in_flight = 3; limit = 4 };
      Protocol.Timeout { after_ms = 250 };
      Protocol.Hello_reply { version = "1.11.0"; rev = Protocol.wire_rev };
      Protocol.Stats_reply
        (Json.Obj [ ("cache", Json.Obj [ ("hits", Json.Int 2); ("rate", Json.Float 0.5) ]) ]);
      Protocol.Metrics_reply "# TYPE pdw_x counter\npdw_x 1\n";
      Protocol.Version_reply "1.11.0";
      Protocol.Pong;
      Protocol.Burned { ms = 5 };
      Protocol.Bye;
      Protocol.Error "bad \"request\"";
    ];
  match Protocol.reply_of_string "{\"status\":" with
  | Error m when contains ~needle:"bad JSON payload" m -> ()
  | _ -> Alcotest.fail "a truncated frame must fail as bad JSON"

(* --- plan cache --- *)

let test_cache_lru () =
  let c = Plan_cache.create ~capacity:2 () in
  Plan_cache.add c "a" "A";
  Plan_cache.add c "b" "B";
  Alcotest.(check (option string)) "hit a" (Some "A") (Plan_cache.find c "a");
  (* [a] was just promoted, so inserting [c] evicts [b]. *)
  Plan_cache.add c "c" "C";
  Alcotest.(check (option string)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "A") (Plan_cache.find c "a");
  Alcotest.(check (option string)) "c present" (Some "C") (Plan_cache.find c "c");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Plan_cache.evictions;
  Alcotest.(check int) "length" 2 s.Plan_cache.length;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "hits" 3 s.Plan_cache.hits

let test_cache_refresh () =
  let c = Plan_cache.create ~capacity:2 () in
  Plan_cache.add c "a" "A";
  Plan_cache.add c "a" "A2";
  Alcotest.(check (option string)) "refreshed value" (Some "A2")
    (Plan_cache.find c "a");
  Alcotest.(check int) "no growth" 1 (Plan_cache.stats c).Plan_cache.length

(* One LRU under real parallelism: domains hammer overlapping keys,
   then the invariants are checked — the capacity bound holds and the
   hit/miss tallies account for every lookup. *)
let test_cache_concurrent_stress () =
  let capacity = 32 and ndomains = 4 and ops = 1_000 in
  let nkeys = 64 in
  let c = Plan_cache.create ~capacity () in
  let worker d () =
    for i = 0 to ops - 1 do
      let k = Printf.sprintf "k%d" (((i * 7) + d) mod nkeys) in
      Plan_cache.add c k ("v" ^ k);
      (match Plan_cache.find c k with
      | Some v ->
        if not (String.equal v ("v" ^ k)) then
          failwith ("wrong value for " ^ k)
      | None -> ());
      if i mod 97 = 0 then ignore (Plan_cache.stats c)
    done
  in
  let domains = List.init ndomains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let total = Plan_cache.stats c in
  Alcotest.(check int) "capacity as configured" capacity
    total.Plan_cache.capacity;
  Alcotest.(check bool) "within the LRU bound" true
    (total.Plan_cache.length <= capacity);
  (* Every [find] above was tallied exactly once. *)
  Alcotest.(check int) "every lookup accounted for" (ndomains * ops)
    (total.Plan_cache.hits + total.Plan_cache.misses);
  Alcotest.(check bool) "64 keys through 32 slots forced evictions" true
    (total.Plan_cache.evictions > 0)

(* --- admission control --- *)

let test_admission () =
  let a = Admission.create ~limit:2 in
  Alcotest.(check bool) "slot 1" true (Admission.try_admit a);
  Alcotest.(check bool) "slot 2" true (Admission.try_admit a);
  Alcotest.(check bool) "slot 3 refused" false (Admission.try_admit a);
  Alcotest.(check int) "shed counted" 1 (Admission.shed_count a);
  Admission.release a;
  Alcotest.(check bool) "slot freed" true (Admission.try_admit a);
  Alcotest.(check int) "in flight" 2 (Admission.in_flight a);
  (* The high-water mark survives releases: it reports the deepest the
     window has ever been, not where it is now. *)
  Admission.release a;
  Admission.release a;
  Alcotest.(check int) "peak sticks at the high-water mark" 2
    (Admission.peak a);
  Alcotest.(check int) "while in_flight drains" 0 (Admission.in_flight a)

(* --- the worker pool's shared queue --- *)

module Pool = Pdw_pool.Domain_pool

let await ?(within = 5.0) what cond =
  let deadline = Unix.gettimeofday () +. within in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let live_workers pool =
  Array.fold_left
    (fun n (w : Pool.worker_stats) -> if w.live then n + 1 else n)
    0 (Pool.worker_stats pool)

let jobs_done pool =
  Array.fold_left
    (fun n (w : Pool.worker_stats) -> n + w.jobs_done)
    0 (Pool.worker_stats pool)

let test_pool_every_job_once () =
  let pool = Pool.create ~size:3 () in
  let n = 60 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  for i = 0 to n - 1 do
    Pool.submit pool (fun () -> Atomic.incr runs.(i))
  done;
  await "every job" (fun () -> jobs_done pool = n);
  Array.iteri
    (fun i r -> Alcotest.(check int) (Printf.sprintf "job %d ran once" i) 1
        (Atomic.get r))
    runs;
  Alcotest.(check int) "nothing left pending" 0 (Pool.pending pool);
  Pool.shutdown pool

(* A worker is counted idle by the time its finished job shows up in
   [jobs_done], so each submit here finds the first worker idle. *)
let test_pool_sequential_one_worker () =
  let pool = Pool.create ~size:4 () in
  for i = 1 to 8 do
    Pool.submit pool (fun () -> ());
    await "the job" (fun () -> jobs_done pool = i)
  done;
  Alcotest.(check int) "one worker domain" 1 (live_workers pool);
  Pool.shutdown pool

(* N jobs that block until released: each finds every live worker
   busy, so the pool grows to min(N, size) domains and no further. *)
let test_pool_blocked_jobs_spawn () =
  List.iter
    (fun (n, size) ->
      let pool = Pool.create ~size () in
      let release = Atomic.make false in
      let started = Atomic.make 0 in
      for _ = 1 to n do
        Pool.submit pool (fun () ->
            Atomic.incr started;
            while not (Atomic.get release) do
              Thread.delay 0.001
            done)
      done;
      let expect = min n size in
      await "the blocked jobs to start" (fun () -> Atomic.get started = expect);
      Alcotest.(check int)
        (Printf.sprintf "%d blocked jobs on a pool of %d" n size)
        expect (live_workers pool);
      Alcotest.(check int) "the rest wait in the queue" (n - expect)
        (Pool.pending pool);
      Atomic.set release true;
      await "every job" (fun () -> jobs_done pool = n);
      Pool.shutdown pool)
    [ (2, 3); (3, 3); (5, 3) ]

(* A worker's word counts are its own domain's: an allocation-free job
   leaves them nearly unchanged while the caller allocates millions of
   words. *)
let test_pool_worker_words_own_domain () =
  let pool = Pool.create ~size:1 () in
  Pool.submit pool (fun () -> ());
  await "the warm-up job" (fun () -> jobs_done pool = 1);
  let before = (Pool.worker_stats pool).(0).minor_words in
  let go = Atomic.make false in
  Pool.submit pool (fun () ->
      while not (Atomic.get go) do Domain.cpu_relax () done);
  let keep = ref [] in
  for i = 1 to 2_000_000 do
    keep := Sys.opaque_identity [ i ]
  done;
  Atomic.set go true;
  await "the quiet job" (fun () -> jobs_done pool = 2);
  let after = (Pool.worker_stats pool).(0).minor_words in
  Pool.shutdown pool;
  ignore (Sys.opaque_identity !keep);
  if after -. before >= 100_000.0 then
    Alcotest.failf "an allocation-free job moved its worker's count by %.0f words"
      (after -. before)

let test_pool_submit_after_shutdown () =
  let pool = Pool.create ~size:2 () in
  Pool.submit pool (fun () -> ());
  await "the job" (fun () -> jobs_done pool = 1);
  Pool.shutdown pool;
  match Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit accepted a job after shutdown"
  | exception Invalid_argument _ -> ()

(* --- the daemon, end to end --- *)

let fresh_socket () =
  let path = Filename.temp_file "pdw-svc" ".sock" in
  Sys.remove path;
  path

let with_server ?(workers = 2) ?(queue_limit = 4) ?(cache = 8)
    ?(timeout_ms = 30_000) ?store_dir f =
  let cfg =
    {
      Server.socket_path = fresh_socket ();
      workers;
      queue_limit;
      cache_capacity = cache;
      job_timeout_ms = timeout_ms;
      store_dir;
      store_max_bytes = 16 * 1024 * 1024;
    }
  in
  let srv = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f cfg.Server.socket_path srv)

(* [Plan]'s payload is an inline record, so destructure it here and hand
   back a plain tuple: (cached, coalesced, outcome). *)
let submit_ok c spec =
  match Client.request c (Protocol.Submit { spec; no_cache = false }) with
  | Ok (Protocol.Plan { cached; coalesced; outcome; _ }) ->
    (cached, coalesced, outcome)
  | Ok _ -> Alcotest.fail "expected a plan reply"
  | Error m -> Alcotest.fail m

(* An integer field of the in-process stats snapshot, by path. *)
let jint_stats srv path =
  let field =
    List.fold_left
      (fun j k -> Option.bind j (Json.member k))
      (Some (Server.stats_json srv))
      path
  in
  match Option.bind field Json.to_int with
  | Some i -> i
  | None -> Alcotest.failf "stats field %s" (String.concat "." path)

let test_server_plan_and_cache () =
  with_server @@ fun path _srv ->
  let spec = spec_of "pcr" in
  let expected =
    match Engine.plan spec with Ok o -> o | Error m -> Alcotest.fail m
  in
  Client.with_client path @@ fun c ->
  let cached1, _, outcome1 = submit_ok c spec in
  Alcotest.(check bool) "first is computed" false cached1;
  Alcotest.(check string) "served plan = one-shot plan" expected outcome1;
  let cached2, _, outcome2 = submit_ok c spec in
  Alcotest.(check bool) "repeat is a cache hit" true cached2;
  Alcotest.(check string) "cached bytes identical" expected outcome2;
  (* Case-insensitive canonicalization: "PCR" hits the same entry. *)
  let cached3, _, _ = submit_ok c (spec_of "PCR") in
  Alcotest.(check bool) "canonicalized repeat hits" true cached3

(* A cache hit costs the client a frame read and a few envelope fields:
   the outcome is cut out of the frame, never parsed into a tree.  The
   client runs on a domain of its own, so the count is its words only,
   not the in-process server's. *)
let test_client_hit_words () =
  with_server @@ fun path _srv ->
  let spec = spec_of "pcr" in
  let hits = 20 in
  let words =
    Domain.join
      (Domain.spawn (fun () ->
           Client.with_client path @@ fun c ->
           ignore (submit_ok c spec);
           ignore (submit_ok c spec);
           let w0 = Gc.minor_words () in
           for _ = 1 to hits do
             match Client.request c (Protocol.Submit { spec; no_cache = false }) with
             | Ok (Protocol.Plan { cached = true; _ }) -> ()
             | _ -> failwith "expected a cache hit"
           done;
           (Gc.minor_words () -. w0) /. float_of_int hits))
  in
  if words >= 5000.0 then
    Alcotest.failf "a cache hit allocated %.0f minor words on the client" words

let test_server_simple_ops () =
  with_server @@ fun path _srv ->
  Client.with_client path @@ fun c ->
  (match Client.request c Protocol.Ping with
  | Ok Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping");
  (match Client.request c Protocol.Version with
  | Ok (Protocol.Version_reply v) ->
    Alcotest.(check string) "version matches the library"
      Pdw_service.Version.version v
  | _ -> Alcotest.fail "version");
  match Client.request c Protocol.Stats with
  | Ok (Protocol.Stats_reply j) ->
    let member_keys =
      [ "version"; "workers"; "queue"; "cache"; "requests"; "latency_ms" ]
    in
    List.iter
      (fun k ->
        Alcotest.(check bool) (Printf.sprintf "stats has %S" k) true
          (Json.member k j <> None))
      member_keys
  | _ -> Alcotest.fail "stats"

let test_server_bad_requests () =
  with_server @@ fun path _srv ->
  Client.with_client path @@ fun c ->
  (match Client.request c (Protocol.Submit { spec = spec_of "nope"; no_cache = false }) with
  | Ok (Protocol.Error m) ->
    Alcotest.(check bool) "names the benchmark" true (contains ~needle:"nope" m)
  | _ -> Alcotest.fail "expected an error reply");
  match
    Client.request c
      (Protocol.Submit
         { spec = Protocol.spec (Protocol.Inline "not an assay {"); no_cache = false })
  with
  | Ok (Protocol.Error _) -> ()
  | _ -> Alcotest.fail "expected a parse-error reply"

let test_server_shed () =
  (* One worker, two in-flight slots.  Two long burns fill the slots
     (one running, one queued); the third request must be refused with
     an explicit shed, not queued silently. *)
  with_server ~workers:1 ~queue_limit:2 @@ fun path _srv ->
  let burn () =
    Client.with_client path @@ fun c ->
    Client.request c (Protocol.Burn { ms = 500 })
  in
  let t1 = Thread.create burn () in
  let t2 = Thread.create burn () in
  Thread.delay 0.15;
  (Client.with_client path @@ fun c ->
   match Client.request c (Protocol.Burn { ms = 10 }) with
   | Ok (Protocol.Shed { in_flight; limit }) ->
     Alcotest.(check int) "limit reported" 2 limit;
     Alcotest.(check bool) "in_flight at limit" true (in_flight >= 2)
   | Ok r ->
     Alcotest.failf "expected shed, got %s"
       (Json.to_string (Protocol.reply_to_json r))
   | Error m -> Alcotest.fail m);
  List.iter Thread.join [ t1; t2 ]

let test_server_timeout () =
  (* One worker busy burning for 600 ms; a submit with a 150 ms budget
     must come back as an explicit timeout, not hang. *)
  with_server ~workers:1 ~queue_limit:4 ~timeout_ms:150 @@ fun path _srv ->
  let burner =
    Thread.create
      (fun () ->
        Client.with_client path @@ fun c ->
        Client.request c (Protocol.Burn { ms = 600 }))
      ()
  in
  Thread.delay 0.15;
  (Client.with_client path @@ fun c ->
   match Client.request c (Protocol.Submit { spec = spec_of "pcr"; no_cache = false }) with
   | Ok (Protocol.Timeout { after_ms }) ->
     Alcotest.(check int) "reports its budget" 150 after_ms
   | Ok r ->
     Alcotest.failf "expected timeout, got %s"
       (Json.to_string (Protocol.reply_to_json r))
   | Error m -> Alcotest.fail m);
  Thread.join burner

(* A long burn holds one of two workers; cold plans of a few distinct
   specs must take the other, idle worker and all finish while the burn
   still runs — no job waits behind a busy worker while another idles,
   whatever its digest. *)
let test_server_cold_beside_burn () =
  with_server ~workers:2 ~queue_limit:8 @@ fun path srv ->
  let burn_done = Atomic.make false in
  let burner =
    Thread.create
      (fun () ->
        ignore
          (Client.with_client path @@ fun c ->
           Client.request c (Protocol.Burn { ms = 2_000 }));
        Atomic.set burn_done true)
      ()
  in
  await "the burn to start" (fun () ->
      jint_stats srv [ "queue"; "in_flight" ] = 1
      && jint_stats srv [ "queue"; "pending" ] = 0);
  (Client.with_client path @@ fun c ->
   List.iter
     (fun name ->
       let cached, _, _ = submit_ok c (spec_of name) in
       Alcotest.(check bool) (name ^ " was planned") false cached)
     [ "pcr"; "ivd"; "proteinsplit"; "synthetic1" ]);
  Alcotest.(check bool) "every cold plan finished before the burn" false
    (Atomic.get burn_done);
  Thread.join burner

(* Two workers, four slots, three burns in flight: a cold submit takes
   the fourth slot whatever its digest — the bound is the configured
   [queue_limit], not a per-worker share of it. *)
let test_server_admission_any_digest () =
  with_server ~workers:2 ~queue_limit:4 @@ fun path srv ->
  List.iter
    (fun name ->
      let burners =
        List.init 3 (fun _ ->
            Thread.create
              (fun () ->
                Client.with_client path @@ fun c ->
                ignore (Client.request c (Protocol.Burn { ms = 400 })))
              ())
      in
      await "three burns in flight" (fun () ->
          jint_stats srv [ "queue"; "in_flight" ] = 3);
      (Client.with_client path @@ fun c ->
       match
         Client.request c
           (Protocol.Submit { spec = spec_of name; no_cache = false })
       with
       | Ok (Protocol.Plan { cached = false; _ }) -> ()
       | Ok r ->
         Alcotest.failf "%s: expected a planned reply, got %s" name
           (Json.to_string (Protocol.reply_to_json r))
       | Error m -> Alcotest.fail m);
      List.iter Thread.join burners;
      await "the queue to drain" (fun () ->
          jint_stats srv [ "queue"; "in_flight" ] = 0))
    [ "pcr"; "ivd"; "proteinsplit"; "synthetic1" ];
  Alcotest.(check int) "nothing shed" 0 (jint_stats srv [ "queue"; "shed" ])

let test_server_loadgen () =
  with_server ~workers:2 ~queue_limit:64 @@ fun path _srv ->
  let specs = [ spec_of "pcr"; spec_of "ivd" ] in
  let s =
    Loadgen.run ~socket_path:path ~clients:8 ~per_client:3 ~verify:true specs
  in
  Alcotest.(check int) "all requests answered with plans" s.Loadgen.requests
    s.Loadgen.plans;
  Alcotest.(check int) "no shed at low load" 0 s.Loadgen.shed;
  Alcotest.(check int) "no mismatches" 0 s.Loadgen.mismatches;
  Alcotest.(check int) "no errors" 0 s.Loadgen.errors;
  Alcotest.(check bool) "duplicates were cached or coalesced" true
    (s.Loadgen.cached + s.Loadgen.coalesced > 0)

(* A connection's requests leave in one batched write and the replies
   come back in request order, positionally aligned. *)
let test_server_pipelined () =
  with_server @@ fun path _srv ->
  let expected =
    match Engine.plan (spec_of "pcr") with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  Client.with_client path @@ fun c ->
  let submit = Protocol.Submit { spec = spec_of "pcr"; no_cache = false } in
  match
    Client.request_many c [ Protocol.Ping; submit; Protocol.Version; submit ]
  with
  | [ Ok Protocol.Pong;
      Ok (Protocol.Plan { outcome = o1; _ });
      Ok (Protocol.Version_reply _);
      Ok (Protocol.Plan { cached; coalesced; outcome = o2; _ });
    ] ->
    Alcotest.(check string) "first plan byte-identical" expected o1;
    Alcotest.(check string) "second plan byte-identical" expected o2;
    (* The batch is dispatched before any reply is resolved: the
       duplicate finds the first submit's job still running and joins
       it. *)
    Alcotest.(check (pair bool bool))
      "duplicate in the same batch joins the first" (false, true)
      (cached, coalesced)
  | replies ->
    Alcotest.failf "unexpected replies: %s"
      (String.concat "; "
         (List.map
            (function
              | Ok r -> Json.to_string (Protocol.reply_to_json r)
              | Error m -> "error " ^ m)
            replies))

(* One connection's pipelined cold submits plan side by side: each is
   admitted when its frame is read, so the worker pool sees them
   together instead of one at a time. *)
let test_server_pipelined_cold () =
  with_server ~workers:2 @@ fun path srv ->
  let names = [ "pcr"; "ivd"; "pcr"; "ivd" ] in
  let replies =
    Client.with_client path @@ fun c ->
    Client.request_many c
      (List.map
         (fun n -> Protocol.Submit { spec = spec_of n; no_cache = true })
         names)
  in
  List.iter2
    (fun name reply ->
      match reply with
      | Ok (Protocol.Plan { cached = false; outcome; _ }) ->
        let expected =
          match Engine.plan (spec_of name) with
          | Ok o -> o
          | Error m -> Alcotest.fail m
        in
        Alcotest.(check string) (name ^ " byte-identical") expected outcome
      | Ok r ->
        Alcotest.failf "%s: expected a planned reply, got %s" name
          (Json.to_string (Protocol.reply_to_json r))
      | Error m -> Alcotest.fail m)
    names replies;
  let peak = jint_stats srv [ "queue"; "depth_peak" ] in
  if peak < 2 then
    Alcotest.failf "pipelined cold submits reached a queue depth of %d" peak

(* A batch far bigger than the client's chunking threshold: the client
   must interleave writes and reads (unbounded write-before-read can
   deadlock against a server blocked flushing replies) and still hand
   back every reply in request order. *)
let test_server_pipelined_huge_batch () =
  with_server ~workers:1 @@ fun path _srv ->
  Client.with_client path @@ fun c ->
  let n = 10_000 in
  let replies = Client.request_many c (List.init n (fun _ -> Protocol.Ping)) in
  Alcotest.(check int) "one reply per request" n (List.length replies);
  List.iteri
    (fun i r ->
      match r with
      | Ok Protocol.Pong -> ()
      | Ok other ->
        Alcotest.failf "reply %d: expected pong, got %s" i
          (Json.to_string (Protocol.reply_to_json other))
      | Error m -> Alcotest.failf "reply %d: %s" i m)
    replies

(* A no-cache campaign is a pure planner workout: nothing is served
   from the cache and nothing coalesces — every request plans from
   scratch on a worker domain, still byte-identical to a local run. *)
let test_server_loadgen_no_cache () =
  with_server ~workers:2 ~queue_limit:64 @@ fun path _srv ->
  let s =
    Loadgen.run ~socket_path:path ~clients:4 ~per_client:3 ~warmup:4
      ~no_cache:true ~verify:true
      [ spec_of "pcr"; spec_of "ivd" ]
  in
  Alcotest.(check bool) "summary says no-cache" true s.Loadgen.no_cache;
  Alcotest.(check int) "every request planned" s.Loadgen.requests
    s.Loadgen.plans;
  Alcotest.(check int) "nothing served from the cache" 0 s.Loadgen.cached;
  Alcotest.(check int) "nothing coalesced" 0 s.Loadgen.coalesced;
  Alcotest.(check int) "no mismatches" 0 s.Loadgen.mismatches;
  Alcotest.(check int) "no errors" 0 s.Loadgen.errors

(* The stats endpoint under live load: whatever the snapshot caught
   mid-flight, the one admission window stays inside its configured
   bound and the cache inside its capacity; once the drivers stop, the
   tallies account for every request they sent. *)
let test_server_stats_consistency () =
  with_server ~workers:2 ~queue_limit:64 ~cache:8 @@ fun path srv ->
  let stop = Atomic.make false in
  let sent = Atomic.make 0 and looked_up = Atomic.make 0 in
  let driver k =
    Client.with_client path @@ fun c ->
    let specs = [| spec_of "pcr"; spec_of "ivd"; spec_of "proteinsplit" |] in
    let i = ref k in
    while not (Atomic.get stop) do
      let no_cache = !i mod 5 = 0 in
      (match
         Client.request c
           (Protocol.Submit { spec = specs.(!i mod 3); no_cache })
       with
      | Ok (Protocol.Plan _) -> ()
      | Ok r -> failwith (Json.to_string (Protocol.reply_to_json r))
      | Error m -> failwith m);
      Atomic.incr sent;
      if not no_cache then Atomic.incr looked_up;
      incr i
    done
  in
  let drivers = List.init 4 (fun k -> Thread.create driver k) in
  let jget j k =
    match Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "stats missing %S" k
  in
  let jint j k =
    match Json.to_int (jget j k) with
    | Some i -> i
    | None -> Alcotest.failf "stats field %S is not an int" k
  in
  let check_snapshot s =
    Alcotest.(check bool) "no per-shard rows" true (Json.member "shards" s = None);
    let queue = jget s "queue" in
    Alcotest.(check int) "limit is the configured queue_limit" 64
      (jint queue "limit");
    Alcotest.(check bool) "in_flight within the peak and the limit" true
      (jint queue "in_flight" <= jint queue "depth_peak"
      && jint queue "depth_peak" <= 64);
    let cache = jget s "cache" in
    Alcotest.(check int) "cache capacity as configured" 8
      (jint cache "capacity");
    Alcotest.(check bool) "cache within its capacity" true
      (jint cache "length" <= 8);
    let requests = jget s "requests" in
    Alcotest.(check bool) "lookups and jobs never exceed submits" true
      (jint cache "hits" + jint cache "misses" <= jint requests "submitted"
      && jint requests "completed" <= jint requests "submitted")
  in
  let stats () = Server.stats_json srv in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Thread.join drivers)
    (fun () ->
      for _ = 1 to 5 do
        Thread.delay 0.05;
        check_snapshot (stats ())
      done);
  (* Quiescent: every driver has its last reply; once the final job's
     slot release lands, nothing is in flight or queued. *)
  await "the queue to drain" (fun () ->
      jint_stats srv [ "queue"; "in_flight" ] = 0);
  let s = stats () in
  check_snapshot s;
  let queue = jget s "queue" and requests = jget s "requests" in
  Alcotest.(check int) "nothing queued when idle" 0 (jint queue "pending");
  Alcotest.(check int) "nothing shed" 0 (jint queue "shed");
  Alcotest.(check int) "every request counted" (Atomic.get sent)
    (jint requests "submitted");
  Alcotest.(check int) "every cached request looked up once"
    (Atomic.get looked_up)
    (jint (jget s "cache") "hits" + jint (jget s "cache") "misses");
  Alcotest.(check int) "every plan reply timed" (Atomic.get sent)
    (jint (jget s "latency_ms") "samples")

(* Warm-up requests prime the cache but never touch the recorded
   figures; the measured phase then runs fully cached. *)
let test_server_loadgen_warmup () =
  with_server ~workers:2 ~queue_limit:64 @@ fun path _srv ->
  let s =
    Loadgen.run ~socket_path:path ~clients:4 ~per_client:4 ~warmup:8
      ~pipeline:2 ~verify:true [ spec_of "pcr" ]
  in
  Alcotest.(check int) "summary reports the warm-up size" 8 s.Loadgen.warmup;
  Alcotest.(check int) "summary reports the pipeline depth" 2
    s.Loadgen.pipeline;
  Alcotest.(check int) "measured requests exclude warm-up" 16
    s.Loadgen.requests;
  Alcotest.(check int) "every measured request planned" 16 s.Loadgen.plans;
  (* The warm-up already planned the only spec, so the measured phase
     is pure cache hits — the steady state the percentiles describe. *)
  Alcotest.(check int) "measured phase fully cached" 16 s.Loadgen.cached;
  Alcotest.(check int) "no mismatches" 0 s.Loadgen.mismatches;
  Alcotest.(check int) "no errors" 0 s.Loadgen.errors

(* --- the scrape surface --- *)

(* A strict-enough parser for the Prometheus text exposition format:
   every line must be a [# HELP]/[# TYPE] comment or a sample
   [name{labels} value]; samples are collected keyed by their full
   series name (labels included), types by family name.  Anything
   malformed fails the test on the spot. *)
let parse_exposition text =
  let samples = Hashtbl.create 64 in
  let types = Hashtbl.create 32 in
  let is_name_char ch =
    (ch >= 'a' && ch <= 'z')
    || (ch >= 'A' && ch <= 'Z')
    || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = ':'
  in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let value_of line s =
    match s with
    | "+Inf" -> infinity
    | "-Inf" -> neg_infinity
    | "NaN" -> Float.nan
    | s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> Alcotest.failf "unparseable value in sample line %S" line)
  in
  List.iter
    (fun line ->
      if starts_with "# HELP " line then ()
      else if starts_with "# TYPE " line then (
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            Alcotest.failf "unknown TYPE %S for %s" kind name;
          if Hashtbl.mem types name then
            Alcotest.failf "duplicate TYPE for %s" name;
          Hashtbl.replace types name kind
        | _ -> Alcotest.failf "malformed TYPE line %S" line)
      else if line <> "" && line.[0] = '#' then
        Alcotest.failf "unexpected comment %S" line
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed sample line %S" line
        | Some sp ->
          let series = String.sub line 0 sp in
          let v =
            value_of line (String.sub line (sp + 1) (String.length line - sp - 1))
          in
          let name_end =
            match String.index_opt series '{' with
            | Some i ->
              if series.[String.length series - 1] <> '}' then
                Alcotest.failf "unclosed label set in %S" line;
              i
            | None -> String.length series
          in
          if name_end = 0 then Alcotest.failf "empty metric name in %S" line;
          String.iteri
            (fun i ch ->
              if i < name_end && not (is_name_char ch) then
                Alcotest.failf "bad metric name in %S" line)
            series;
          if Hashtbl.mem samples series then
            Alcotest.failf "duplicate series %S" series;
          Hashtbl.replace samples series v)
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' text));
  (samples, types)

(* The metrics verb end to end: a loaded server's exposition parses,
   carries every advertised family with the right type, and adds up —
   the latency count equals the number of plans actually served, and
   the worker rows sum to the planner jobs. *)
let test_server_metrics () =
  with_server ~workers:2 @@ fun path srv ->
  Client.with_client path @@ fun c ->
  let _ = submit_ok c (spec_of "pcr") in
  let _ = submit_ok c (spec_of "pcr") in
  (* cache hit *)
  let _ = submit_ok c (spec_of "ivd") in
  let text =
    match Client.request c Protocol.Metrics with
    | Ok (Protocol.Metrics_reply t) -> t
    | Ok r ->
      Alcotest.failf "expected metrics, got %s"
        (Json.to_string (Protocol.reply_to_json r))
    | Error m -> Alcotest.fail m
  in
  (* The in-process exposition is the same surface. *)
  (match
     Hashtbl.find_opt
       (fst (parse_exposition (Server.metrics_text srv)))
       "pdw_requests_submitted_total"
   with
  | Some 3.0 -> ()
  | _ -> Alcotest.fail "in-process metrics");
  let samples, types = parse_exposition text in
  let get series =
    match Hashtbl.find_opt samples series with
    | Some v -> v
    | None -> Alcotest.failf "missing series %S" series
  in
  List.iter
    (fun (name, kind) ->
      match Hashtbl.find_opt types name with
      | Some k -> Alcotest.(check string) (name ^ " type") kind k
      | None -> Alcotest.failf "missing family %s" name)
    [
      ("pdw_uptime_seconds", "gauge");
      ("pdw_workers", "gauge");
      ("pdw_requests_submitted_total", "counter");
      ("pdw_requests_completed_total", "counter");
      ("pdw_requests_shed_total", "counter");
      ("pdw_queue_in_flight", "gauge");
      ("pdw_queue_limit", "gauge");
      ("pdw_cache_hits_total", "counter");
      ("pdw_cache_misses_total", "counter");
      ("pdw_request_latency_ms", "histogram");
      ("pdw_queue_wait_ms", "histogram");
      ("pdw_service_ms", "histogram");
      ("pdw_worker_jobs_done_total", "counter");
      ("pdw_worker_minor_words_total", "counter");
      ("pdw_worker_live", "gauge");
      ("pdw_reqtrace_seen_total", "counter");
    ];
  (* Request accounting: 3 submits, one served from the cache. *)
  Alcotest.(check (float 0.)) "submitted" 3.0 (get "pdw_requests_submitted_total");
  Alcotest.(check (float 0.)) "cache hits" 1.0 (get "pdw_cache_hits_total");
  Alcotest.(check (float 0.)) "uncoalesced" 0.0 (get "pdw_requests_coalesced_total");
  Alcotest.(check (float 0.)) "one admission bound, as configured" 4.0
    (get "pdw_queue_limit");
  Hashtbl.iter
    (fun series _ ->
      if String.starts_with ~prefix:"pdw_shard_" series then
        Alcotest.failf "per-shard series %S" series)
    samples;
  (* Every plan reply — hit or freshly planned — recorded one latency
     sample. *)
  let merged = get "pdw_request_latency_ms_count" in
  Alcotest.(check (float 0.)) "latency count = plans served" 3.0 merged;
  let sum_prefix prefix =
    Hashtbl.fold
      (fun series v acc ->
        if
          String.length series >= String.length prefix
          && String.sub series 0 (String.length prefix) = prefix
        then acc +. v
        else acc)
      samples 0.0
  in
  Alcotest.(check (float 0.)) "+Inf bucket equals the count" merged
    (get "pdw_request_latency_ms_bucket{le=\"+Inf\"}");
  (* Two jobs actually ran on workers (the hit never left the front). *)
  Alcotest.(check (float 0.)) "service histogram counts worker jobs" 2.0
    (get "pdw_service_ms_count");
  Alcotest.(check (float 0.)) "queue-wait histogram counts worker jobs" 2.0
    (get "pdw_queue_wait_ms_count");
  Alcotest.(check (float 0.)) "worker jobs sum to the planner jobs" 2.0
    (sum_prefix "pdw_worker_jobs_done_total{");
  Alcotest.(check (float 0.)) "every submit was traced" 3.0
    (get "pdw_reqtrace_seen_total");
  Alcotest.(check bool) "latency sum is positive" true
    (get "pdw_request_latency_ms_sum" > 0.0)

(* The server-side telemetry behind the serve bench's per-campaign
   breakdown: the stats snapshot's histograms, read on a fresh daemon as
   that campaign's own, and the recent-requests ring with its stage
   breakdowns. *)
let test_server_telemetry_and_ring () =
  with_server @@ fun path srv ->
  Client.with_client path @@ fun c ->
  let module R = Pdw_obs.Reqtrace in
  let _ = submit_ok c (spec_of "pcr") in
  let _ = submit_ok c (spec_of "pcr") in
  let samples name = jint_stats srv [ name; "samples" ] in
  Alcotest.(check int) "two plan replies timed" 2 (samples "latency_ms");
  Alcotest.(check int) "one planner job serviced" 1 (samples "service_ms");
  Alcotest.(check int) "one queue wait recorded" 1 (samples "queue_wait_ms");
  match Server.recent_requests srv with
  | [ hit; planned ] ->
    Alcotest.(check bool) "newest record is the cache hit" true
      (hit.R.outcome = R.Hit);
    Alcotest.(check bool) "older record planned" true
      (planned.R.outcome = R.Planned);
    Alcotest.(check bool) "ids mint in accept order" true
      (planned.R.id < hit.R.id);
    Alcotest.(check string) "digests correlate" planned.R.digest hit.R.digest;
    (* The planned record carries the full boundary-by-boundary story:
       front stages, queue wait, the engine's own stage names. *)
    List.iter
      (fun stage ->
        Alcotest.(check bool)
          (Printf.sprintf "planned record has stage %S" stage)
          true
          (List.mem_assoc stage planned.R.stages))
      [ "cache"; "admission"; "queue"; "synthesize"; "optimize"; "wait" ];
    Alcotest.(check bool) "hit record is front-door only" true
      (List.map fst hit.R.stages = [ "cache" ])
  | rs -> Alcotest.failf "expected 2 recent records, got %d" (List.length rs)

let test_server_shutdown_request () =
  let cfg =
    Server.default_config ~socket_path:(fresh_socket ())
  in
  let cfg = { cfg with Server.workers = 1 } in
  let srv = Server.start cfg in
  (Client.with_client cfg.Server.socket_path @@ fun c ->
   match Client.request c Protocol.Shutdown with
   | Ok Protocol.Bye -> ()
   | _ -> Alcotest.fail "expected bye");
  Server.wait srv;
  Alcotest.(check bool) "socket file removed" false
    (Sys.file_exists cfg.Server.socket_path)

(* --- adversarial framing: chunk boundaries must not matter --- *)

let encode_frame payload =
  Printf.sprintf "%d\n%s" (String.length payload) payload

(* Feed a byte stream through a pipe in the given segments, pausing
   between writes so each segment (very likely) lands as its own
   [Unix.read] — the buffered reader must reassemble frames across any
   such boundary.  Correctness does not depend on the pause: if the
   kernel coalesces two segments the test still checks the frames. *)
let read_stream_in_segments ~segments ~buf_size k =
  with_pipe @@ fun r w ->
  let writer =
    Thread.create
      (fun () ->
        List.iter
          (fun seg ->
            if String.length seg > 0 then
              ignore (Unix.write_substring w seg 0 (String.length seg));
            Thread.delay 0.001)
          segments;
        Unix.close w)
      ()
  in
  let result = k (Wire.Buffered.create ~buf_size r) in
  Thread.join writer;
  result

(* Two frames, the stream cut at EVERY byte position — header split
   mid-digit, split exactly at the '\n', split inside the payload, and
   the degenerate cuts at both ends all reassemble. *)
let test_wire_split_every_byte () =
  let frames = [ "{\"op\":\"ping\"}"; String.init 64 Char.chr ] in
  let stream = String.concat "" (List.map encode_frame frames) in
  let n = String.length stream in
  for cut = 0 to n do
    let segments = [ String.sub stream 0 cut; String.sub stream cut (n - cut) ] in
    read_stream_in_segments ~segments ~buf_size:1024 @@ fun rd ->
    List.iteri
      (fun i expected ->
        match Wire.Buffered.read_frame rd with
        | Some got ->
          if not (String.equal got expected) then
            Alcotest.failf "cut at %d: frame %d corrupted" cut i
        | None -> Alcotest.failf "cut at %d: eof before frame %d" cut i)
      frames;
    if Wire.Buffered.read_frame rd <> None then
      Alcotest.failf "cut at %d: trailing bytes after the last frame" cut
  done

(* EOF inside a frame — mid-payload or even mid-header — is a protocol
   error, never a silent truncation or a clean end-of-stream. *)
let test_wire_truncated_tail () =
  let first = "{\"op\":\"ping\"}" in
  let expect_error_after_first tail =
    read_stream_in_segments
      ~segments:[ encode_frame first; tail ]
      ~buf_size:1024
    @@ fun rd ->
    (match Wire.Buffered.read_frame rd with
    | Some got -> Alcotest.(check string) "intact frame served first" first got
    | None -> Alcotest.fail "eof before the intact frame");
    match Wire.Buffered.read_frame rd with
    | exception Wire.Protocol_error _ -> ()
    | Some _ | None ->
      Alcotest.failf "truncated tail %S must raise Protocol_error" tail
  in
  expect_error_after_first "10\nabc";
  (* payload cut short *)
  expect_error_after_first "12"
(* header cut short *)

let prop_wire_chunking_independent =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (1 -- 4) (string_size (0 -- 1500)))
        (list_size (0 -- 12) (0 -- 10_000)))
  in
  QCheck2.Test.make ~name:"buffered reads are chunking-independent"
    ~count:25 gen (fun (payloads, raw_cuts) ->
      let stream = String.concat "" (List.map encode_frame payloads) in
      let n = String.length stream in
      let cuts =
        List.sort_uniq compare
          (List.filter_map
             (fun c -> if n = 0 then None else Some (c mod n))
             raw_cuts)
      in
      let segments =
        let bounds = (0 :: cuts) @ [ n ] in
        let rec slice = function
          | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: slice rest
          | _ -> []
        in
        slice bounds
      in
      (* A 1 KiB read buffer with payloads up to 1500 bytes exercises
         both the buffered path and the straight-from-fd spill. *)
      read_stream_in_segments ~segments ~buf_size:1024 @@ fun rd ->
      List.for_all
        (fun expected ->
          match Wire.Buffered.read_frame rd with
          | Some got -> String.equal got expected
          | None -> false)
        payloads
      && Wire.Buffered.read_frame rd = None)

(* --- the persistent plan store --- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_store_dir f =
  let dir = Filename.temp_file "pdw-store" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let hex_digest s = Digest.to_hex (Digest.string s)

let test_store_roundtrip () =
  with_store_dir @@ fun dir ->
  let st = Plan_store.open_ ~dir () in
  let d = hex_digest "a" in
  Plan_store.add st d "payload-A";
  Alcotest.(check (option string)) "stored plan found" (Some "payload-A")
    (Plan_store.find st d);
  Alcotest.(check (option string)) "unknown digest misses" None
    (Plan_store.find st (hex_digest "zzz"));
  (* A digest is a hex string; anything else must never reach the
     filesystem (no path traversal through the content address). *)
  Alcotest.(check (option string)) "non-hex digest refused" None
    (Plan_store.find st "../../etc/passwd");
  let s = Plan_store.stats st in
  Alcotest.(check int) "one write" 1 s.Plan_store.writes;
  Alcotest.(check int) "one entry" 1 s.Plan_store.entries;
  Alcotest.(check bool) "bytes accounted" true (s.Plan_store.bytes > 0);
  (* Reopen: the index is rebuilt from the directory scan, so the plan
     survives a process restart. *)
  let st2 = Plan_store.open_ ~dir () in
  Alcotest.(check (option string)) "survives reopen" (Some "payload-A")
    (Plan_store.find st2 d)

let mangle_file file f =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let mangled = f bytes in
  let oc = open_out_bin file in
  output_string oc mangled;
  close_out oc

let test_store_corrupt () =
  let check_refused name mangle =
    with_store_dir @@ fun dir ->
    let d = hex_digest name in
    let st = Plan_store.open_ ~dir () in
    Plan_store.add st d ("plan bytes for " ^ name);
    let file = Filename.concat dir (d ^ ".plan") in
    Alcotest.(check bool) (name ^ ": file exists") true (Sys.file_exists file);
    mangle_file file mangle;
    (* A fresh open adopts the damaged file from the scan; the CRC (or
       length) check must refuse it and delete it. *)
    let st2 = Plan_store.open_ ~dir () in
    Alcotest.(check (option string)) (name ^ ": corrupt entry refused") None
      (Plan_store.find st2 d);
    Alcotest.(check bool) (name ^ ": corruption counted") true
      ((Plan_store.stats st2).Plan_store.corrupt >= 1);
    Alcotest.(check bool) (name ^ ": damaged file deleted") false
      (Sys.file_exists file)
  in
  (* last payload byte flipped: length fine, CRC wrong *)
  check_refused "bitflip" (fun s ->
      let b = Bytes.of_string s in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b);
  (* torn write: file cut mid-payload *)
  check_refused "truncated" (fun s -> String.sub s 0 (String.length s / 2))

let test_store_eviction () =
  with_store_dir @@ fun dir ->
  let payload = String.make 1024 'p' in
  (* Budget for three ~1 KiB files (headers included), not four. *)
  let st = Plan_store.open_ ~dir ~max_bytes:3500 () in
  let d i = hex_digest (string_of_int i) in
  for i = 1 to 4 do
    Plan_store.add st (d i) payload
  done;
  let s = Plan_store.stats st in
  Alcotest.(check bool) "bytes held to the budget" true
    (s.Plan_store.bytes <= 3500);
  Alcotest.(check int) "one eviction" 1 s.Plan_store.evictions;
  Alcotest.(check int) "three entries left" 3 s.Plan_store.entries;
  Alcotest.(check (option string)) "least-recently-used unlinked" None
    (Plan_store.find st (d 1));
  Alcotest.(check (option string)) "newest survives" (Some payload)
    (Plan_store.find st (d 4))

(* The two-tier cache: write-through demotions, store-hit promotions,
   and memory eviction that never touches the persistent tier. *)
let test_cache_tiers () =
  with_store_dir @@ fun dir ->
  let store = Plan_store.open_ ~dir () in
  let c = Plan_cache.create ~capacity:1 ~store () in
  let da = hex_digest "a" and db = hex_digest "b" in
  Plan_cache.add c da "A";
  (* write-through *)
  Plan_cache.add c db "B";
  (* evicts [a] from memory; the store still has it *)
  (match Plan_cache.find_tier c da with
  | Some ("A", Plan_cache.Store) -> ()
  | Some (_, Plan_cache.Memory) -> Alcotest.fail "evicted entry still in memory"
  | Some _ -> Alcotest.fail "wrong payload from the store tier"
  | None -> Alcotest.fail "memory eviction must not reach the store");
  (* the store hit was promoted: now it answers from memory *)
  (match Plan_cache.find_tier c da with
  | Some ("A", Plan_cache.Memory) -> ()
  | _ -> Alcotest.fail "store hit was not promoted into memory");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "both adds wrote through" 2 s.Plan_cache.demotions;
  Alcotest.(check int) "one promotion" 1 s.Plan_cache.promotions;
  Alcotest.(check int) "memory hit counted" 1 s.Plan_cache.hits;
  Alcotest.(check int) "memory miss counted" 1 s.Plan_cache.misses;
  match Plan_cache.store_stats c with
  | Some st ->
    Alcotest.(check int) "store saw both writes" 2 st.Plan_store.writes;
    Alcotest.(check int) "store served the fall-through" 1 st.Plan_store.hits
  | None -> Alcotest.fail "store_stats missing with a store configured"

(* --- the version handshake --- *)

let test_server_hello () =
  with_server @@ fun path _srv ->
  Client.with_client path @@ fun c ->
  (match
     Client.request c
       (Protocol.Hello { version = "test-harness"; rev = Protocol.wire_rev })
   with
  | Ok (Protocol.Hello_reply { version; rev }) ->
    Alcotest.(check string) "server states its build version"
      Pdw_service.Version.version version;
    Alcotest.(check int) "server states its wire rev" Protocol.wire_rev rev
  | Ok r ->
    Alcotest.failf "expected hello_reply, got %s"
      (Json.to_string (Protocol.reply_to_json r))
  | Error m -> Alcotest.fail m);
  (* A rev mismatch is a loud typed error — the connection survives and
     the message names both revisions. *)
  (match
     Client.request c
       (Protocol.Hello { version = "test-harness"; rev = Protocol.wire_rev + 1 })
   with
  | Ok (Protocol.Error m) ->
    Alcotest.(check bool) "error names the server's rev" true
      (contains ~needle:(string_of_int Protocol.wire_rev) m);
    Alcotest.(check bool) "error names the peer's rev" true
      (contains ~needle:(string_of_int (Protocol.wire_rev + 1)) m)
  | Ok r ->
    Alcotest.failf "rev mismatch must be a typed error, got %s"
      (Json.to_string (Protocol.reply_to_json r))
  | Error m -> Alcotest.failf "decode failure instead of a typed error: %s" m);
  match Client.request c Protocol.Ping with
  | Ok Protocol.Pong -> ()
  | _ -> Alcotest.fail "connection must survive a refused handshake"

(* --- the persistent tier behind the daemon: warm-store restart --- *)

let submit_tier c spec =
  match Client.request c (Protocol.Submit { spec; no_cache = false }) with
  | Ok (Protocol.Plan { cached; tier; outcome; _ }) -> (cached, tier, outcome)
  | Ok r ->
    Alcotest.failf "expected a plan reply, got %s"
      (Json.to_string (Protocol.reply_to_json r))
  | Error m -> Alcotest.fail m

(* The ISSUE's acceptance case: a daemon restarted against a warm store
   serves its first request for a previously planned digest from disk —
   cached, tier [store], byte-identical — without running the planner. *)
let test_server_store_restart () =
  with_store_dir @@ fun dir ->
  let spec = spec_of "pcr" in
  let expected =
    match Engine.plan spec with Ok o -> o | Error m -> Alcotest.fail m
  in
  (with_server ~store_dir:dir @@ fun path _srv ->
   Client.with_client path @@ fun c ->
   let cached, tier, outcome = submit_tier c spec in
   Alcotest.(check bool) "first run computes" false cached;
   Alcotest.(check bool) "first run planned" true (tier = Protocol.Planned);
   Alcotest.(check string) "first run byte-identical" expected outcome);
  (* the first daemon is gone; a fresh one shares only the directory *)
  with_server ~store_dir:dir @@ fun path srv ->
  Client.with_client path @@ fun c ->
  let cached, tier, outcome = submit_tier c spec in
  Alcotest.(check bool) "restart serves from cache" true cached;
  Alcotest.(check bool) "restart's first hit is the store tier" true
    (tier = Protocol.Store);
  Alcotest.(check string) "restart byte-identical" expected outcome;
  Alcotest.(check int) "the store hit was promoted into memory" 1
    (jint_stats srv [ "cache"; "promotions" ]);
  Alcotest.(check int) "the store tier recorded the hit" 1
    (jint_stats srv [ "cache"; "store"; "hits" ]);
  (* no planner job ran: the outcome came off disk *)
  Alcotest.(check int) "nothing reached the workers" 0
    (jint_stats srv [ "requests"; "completed" ])

(* --- the consistent-hash ring --- *)

let ring_keys n = List.init n (fun i -> Printf.sprintf "digest-%04d" i)

let test_ring_determinism_and_balance () =
  let nodes = [ "shard-0"; "shard-1"; "shard-2" ] in
  let r1 = Router.Ring.create ~nodes ~vnodes:64 in
  let r2 = Router.Ring.create ~nodes ~vnodes:64 in
  Alcotest.(check int) "points = nodes x vnodes" (3 * 64)
    (Router.Ring.size r1);
  let keys = ring_keys 3000 in
  let counts = Hashtbl.create 3 in
  List.iter
    (fun k ->
      (match (Router.Ring.lookup r1 k, Router.Ring.lookup r2 k) with
      | Some a, Some b ->
        Alcotest.(check string) ("deterministic owner for " ^ k) a b
      | _ -> Alcotest.fail "lookup on a non-empty ring");
      match Router.Ring.lookup r1 k with
      | Some owner ->
        Hashtbl.replace counts owner
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner))
      | None -> ())
    keys;
  List.iter
    (fun node ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts node) in
      (* Fair share is 1000; 64 vnodes keep every node within a loose
         band around it — the property that matters is that no node is
         starved or doubly loaded. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s owns a fair share (%d of 3000)" node n)
        true
        (n > 500 && n < 1700))
    nodes;
  Alcotest.(check bool) "empty ring has no owner" true
    (Router.Ring.lookup (Router.Ring.create ~nodes:[] ~vnodes:64) "k" = None)

let test_ring_minimal_remap () =
  let keys = ring_keys 3000 in
  let before = Router.Ring.create ~nodes:[ "a"; "b"; "c" ] ~vnodes:64 in
  let after = Router.Ring.create ~nodes:[ "a"; "b" ] ~vnodes:64 in
  let moved = ref 0 and owned_by_c = ref 0 in
  List.iter
    (fun k ->
      match (Router.Ring.lookup before k, Router.Ring.lookup after k) with
      | Some o1, Some o2 ->
        if o1 = "c" then begin
          incr owned_by_c;
          (* its keys must land on a survivor *)
          Alcotest.(check bool) "c's keys remap to a live node" true
            (o2 = "a" || o2 = "b")
        end
        else
          (* the defining property: removing [c] moves ONLY c's keys *)
          Alcotest.(check string) ("unaffected key " ^ k ^ " stays put") o1 o2;
        if o1 <> o2 then incr moved
      | _ -> Alcotest.fail "lookup on a non-empty ring")
    keys;
  Alcotest.(check int) "moved keys are exactly c's keys" !owned_by_c !moved;
  Alcotest.(check bool) "c owned something to begin with" true
    (!owned_by_c > 0)

(* --- the fleet router, end to end --- *)

let with_fleet ?(shards = 2) f =
  let mk_shard () =
    let cfg =
      {
        Server.socket_path = fresh_socket ();
        workers = 1;
        queue_limit = 16;
        cache_capacity = 8;
        job_timeout_ms = 30_000;
        store_dir = None;
        store_max_bytes = 16 * 1024 * 1024;
      }
    in
    (cfg.Server.socket_path, Server.start cfg)
  in
  let backends = List.init shards (fun _ -> mk_shard ()) in
  let rcfg =
    Router.default_config ~socket_path:(fresh_socket ())
      ~shard_sockets:(List.map fst backends)
  in
  let router = Router.start rcfg in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter (fun (_, srv) -> Server.stop srv) backends)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Router.live_count router < shards && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "all shards connected" shards
        (Router.live_count router);
      f rcfg.Router.socket_path router (List.map snd backends))

let jget_path j path' =
  match
    List.fold_left
      (fun acc k -> Option.bind acc (Json.member k))
      (Some j) path'
  with
  | Some v -> v
  | None -> Alcotest.failf "missing %s" (String.concat "." path')

let jint_path j path' =
  match Json.to_int (jget_path j path') with
  | Some i -> i
  | None -> Alcotest.failf "%s is not an int" (String.concat "." path')

let test_router_end_to_end () =
  with_fleet ~shards:2 @@ fun path router backends ->
  let expected_pcr =
    match Engine.plan (spec_of "pcr") with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  Client.with_client path @@ fun c ->
  (match Client.request c Protocol.Ping with
  | Ok Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping through the router");
  (* Plans routed through the fleet are byte-identical to one-shot
     runs — the router forwards raw frames, so this is structural. *)
  let cached1, _, o1 = submit_ok c (spec_of "pcr") in
  Alcotest.(check bool) "first submit computes" false cached1;
  Alcotest.(check string) "routed plan = one-shot plan" expected_pcr o1;
  (* Same digest, same shard: the repeat hits that shard's cache. *)
  let cached2, _, o2 = submit_ok c (spec_of "pcr") in
  Alcotest.(check bool) "repeat through the ring hits" true cached2;
  Alcotest.(check string) "cached routed bytes identical" expected_pcr o2;
  let _ = submit_ok c (spec_of "ivd") in
  (* Fleet-merged stats: the router's own section plus field-wise sums
     of the shard snapshots. *)
  (match Client.request c Protocol.Stats with
  | Ok (Protocol.Stats_reply j) ->
    Alcotest.(check int) "fleet reports both procs" 2
      (jint_path j [ "fleet"; "procs_total" ]);
    Alcotest.(check int) "both procs live" 2
      (jint_path j [ "fleet"; "procs_live" ]);
    Alcotest.(check bool) "submits were forwarded" true
      (jint_path j [ "fleet"; "forwarded" ] >= 3);
    Alcotest.(check int) "merged submit tally" 3
      (jint_path j [ "requests"; "submitted" ]);
    Alcotest.(check int) "merged cache-hit tally" 1
      (jint_path j [ "cache"; "hits" ]);
    (match Json.to_list (jget_path j [ "procs" ]) with
    | Some procs ->
      Alcotest.(check int) "one row per shard process" 2 (List.length procs);
      let sum =
        List.fold_left
          (fun acc p -> acc + jint_path p [ "stats"; "requests"; "submitted" ])
          0 procs
      in
      Alcotest.(check int) "per-proc rows sum to the merged tally" 3 sum
    | None -> Alcotest.fail "procs is not an array")
  | _ -> Alcotest.fail "stats through the router");
  (* Fleet-merged metrics: parse the exposition, check the router's own
     families and that merged shard counters carry the fleet totals. *)
  (match Client.request c Protocol.Metrics with
  | Ok (Protocol.Metrics_reply text) ->
    let samples, types = parse_exposition text in
    let get series =
      match Hashtbl.find_opt samples series with
      | Some v -> v
      | None -> Alcotest.failf "missing series %S" series
    in
    Alcotest.(check bool) "router families typed" true
      (Hashtbl.mem types "pdw_router_forwarded_total");
    Alcotest.(check (float 0.)) "fleet size gauge" 2.0 (get "pdw_fleet_procs");
    Alcotest.(check (float 0.)) "live gauge" 2.0 (get "pdw_fleet_procs_live");
    Alcotest.(check (float 0.)) "merged submitted counter" 3.0
      (get "pdw_requests_submitted_total");
    (* per-shard uptimes don't add; the merge must drop them *)
    Alcotest.(check bool) "per-shard uptime dropped from the merge" false
      (Hashtbl.mem samples "pdw_uptime_seconds")
  | _ -> Alcotest.fail "metrics through the router");
  (* Kill one shard out from under the fleet: queued work is retried on
     the survivor and later submits keep answering — zero errors. *)
  (match backends with
  | first :: _ -> Server.stop first
  | [] -> Alcotest.fail "no backends");
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Router.live_count router > 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "dead shard dropped from the ring" 1
    (Router.live_count router);
  let _, _, o1' = submit_tier c (spec_of "pcr") in
  Alcotest.(check string) "re-routed plan still byte-identical" expected_pcr
    o1';
  let _, _, _ = submit_tier c (spec_of "ivd") in
  match Client.request c Protocol.Stats with
  | Ok (Protocol.Stats_reply j) ->
    Alcotest.(check int) "one proc left" 1
      (jint_path j [ "fleet"; "procs_live" ]);
    Alcotest.(check bool) "the death was re-rung" true
      (jint_path j [ "fleet"; "rerings" ] >= 1)
  | _ -> Alcotest.fail "stats after the kill"

(* A seeded, verified campaign through the router: every plan reply is
   checked byte-for-byte against a locally computed outcome, and the
   summary carries the seed it can be replayed with. *)
let test_router_loadgen_seeded () =
  with_fleet ~shards:2 @@ fun path _router _backends ->
  let specs = [ spec_of "pcr"; spec_of "ivd" ] in
  let s =
    Loadgen.run ~socket_path:path ~clients:4 ~per_client:4 ~warmup:4
      ~pipeline:2 ~seed:7 ~verify:true specs
  in
  Alcotest.(check int) "all requests answered with plans" s.Loadgen.requests
    s.Loadgen.plans;
  Alcotest.(check int) "no mismatches through the fleet" 0
    s.Loadgen.mismatches;
  Alcotest.(check int) "no errors through the fleet" 0 s.Loadgen.errors;
  Alcotest.(check int) "no shed" 0 s.Loadgen.shed;
  Alcotest.(check (option int)) "summary carries the seed" (Some 7)
    s.Loadgen.seed

(* Pipelined load through the router faster than one shard answers it:
   eight clients, 32 requests in flight each, against one shard of two
   workers.  If the router's reply reader waited on the write side's
   lock, it would deadlock here against a shard blocked writing
   replies, and a deadlocked router cannot be stopped either — so the
   campaign runs on its own thread, and a watchdog fails the test,
   without teardown, rather than hang the suite. *)
let test_router_pipelined_no_deadlock () =
  let shard_socket = fresh_socket () in
  let shard =
    Server.start
      { (Server.default_config ~socket_path:shard_socket) with workers = 2 }
  in
  let router =
    Router.start
      (Router.default_config ~socket_path:(fresh_socket ())
         ~shard_sockets:[ shard_socket ])
  in
  let path = (Router.config router).Router.socket_path in
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () ->
         Atomic.set result
           (Some
              (match
                 Loadgen.run ~socket_path:path ~clients:8 ~per_client:512
                   ~warmup:64 ~pipeline:32 ~seed:424242 ~verify:true
                   [ spec_of "pcr"; spec_of "ivd"; spec_of "proteinsplit" ]
               with
              | s -> Ok s
              | exception e -> Error (Printexc.to_string e))))
       ());
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  match Atomic.get result with
  | None -> Alcotest.fail "pipelined campaign through the router hung for 30 s"
  | Some r ->
    Router.stop router;
    Server.stop shard;
    let s = match r with Ok s -> s | Error m -> Alcotest.fail m in
    Alcotest.(check int) "every request answered with a plan" 4096
      s.Loadgen.plans;
    Alcotest.(check int) "no mismatches" 0 s.Loadgen.mismatches;
    Alcotest.(check int) "no errors" 0 s.Loadgen.errors

(* --- the one front end, on both daemons --- *)

let with_raw_conn path f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Wire.Buffered.create fd))

let show_reply = function
  | Ok r -> Json.to_string (Protocol.reply_to_json r)
  | Error m -> "undecodable: " ^ m

let expect_reply name rd expected =
  let got =
    match Wire.Buffered.read_frame rd with
    | Some frame -> Protocol.reply_of_string frame
    | None -> Error "end of stream"
  in
  if got <> Ok expected then
    Alcotest.failf "%s: expected %s, got %s" name
      (show_reply (Ok expected)) (show_reply got)

(* A well-framed payload that is not JSON is a bad request, not bad
   framing: it is answered and the connection reads on. *)
let check_bad_json name path =
  with_raw_conn path @@ fun fd rd ->
  Wire.write_frame fd "not json {";
  (match Wire.Buffered.read_frame rd with
  | Some frame -> (
    match Protocol.reply_of_string frame with
    | Ok (Protocol.Error m) when String.starts_with ~prefix:"bad JSON payload: " m
      ->
      ()
    | r -> Alcotest.failf "%s: a non-JSON payload got %s" name (show_reply r))
  | None -> Alcotest.failf "%s hung up on a non-JSON payload" name);
  (try Wire.write_json fd (Protocol.request_to_json Protocol.Ping)
   with Unix.Unix_error _ ->
     Alcotest.failf "%s hung up after answering a non-JSON payload" name);
  expect_reply name rd Protocol.Pong

let test_front_end_bad_json () =
  with_server (fun path _ -> check_bad_json "server" path);
  with_fleet (fun path _ _ -> check_bad_json "router" path)

(* [Ping; Shutdown; Ping] in one write: the frame after the shutdown is
   never dispatched — the replies are Pong, Bye, then end of stream. *)
let check_shutdown_ends_batch name path wait =
  with_raw_conn path @@ fun fd rd ->
  let wr = Wire.Batch.create fd in
  List.iter
    (fun req -> Wire.Batch.add_json wr (Protocol.request_to_json req))
    [ Protocol.Ping; Protocol.Shutdown; Protocol.Ping ];
  Wire.Batch.flush wr;
  expect_reply name rd Protocol.Pong;
  expect_reply name rd Protocol.Bye;
  (match Wire.Buffered.read_frame rd with
  | None -> ()
  | Some frame -> Alcotest.failf "%s answered past its Bye: %s" name frame);
  wait ()

let test_front_end_shutdown_ends_batch () =
  with_server (fun path srv ->
      check_shutdown_ends_batch "server" path (fun () -> Server.wait srv));
  with_fleet (fun path router _ ->
      check_shutdown_ends_batch "router" path (fun () -> Router.wait router))

(* A framing error drops the connection, but only after the frames
   read before it in the same batch, and the error itself, are
   answered. *)
let check_framing_error name path =
  with_raw_conn path @@ fun fd rd ->
  let ping = Json.to_string (Protocol.request_to_json Protocol.Ping) in
  let bytes = Printf.sprintf "%d\n%sxyz\n" (String.length ping) ping in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  expect_reply name rd Protocol.Pong;
  (match Wire.Buffered.read_frame rd with
  | Some frame -> (
    match Protocol.reply_of_string frame with
    | Ok (Protocol.Error _) -> ()
    | r -> Alcotest.failf "%s answered bad framing with %s" name (show_reply r))
  | None -> Alcotest.failf "%s hung up without answering bad framing" name);
  match Wire.Buffered.read_frame rd with
  | None -> ()
  | Some frame -> Alcotest.failf "%s read on past bad framing: %s" name frame

let test_front_end_framing_error () =
  with_server (fun path _ -> check_framing_error "server" path);
  with_fleet (fun path _ _ -> check_framing_error "router" path)

(* A socket file nobody answers on is replaced; one a live daemon
   answers on is refused with [EADDRINUSE]. *)
let check_bind_probe name start =
  let path = fresh_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  let stop = start path in
  Fun.protect ~finally:stop @@ fun () ->
  with_raw_conn path (fun fd rd ->
      Wire.write_json fd (Protocol.request_to_json Protocol.Ping);
      expect_reply (name ^ " on a stale socket file") rd Protocol.Pong);
  match start path with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  | stop' ->
    stop' ();
    Alcotest.failf "%s started on a live daemon's socket" name

let test_front_end_bind_probe () =
  check_bind_probe "server" (fun path ->
      let srv = Server.start (Server.default_config ~socket_path:path) in
      fun () -> Server.stop srv);
  with_server @@ fun shard _ ->
  check_bind_probe "router" (fun path ->
      let r =
        Router.start
          (Router.default_config ~socket_path:path ~shard_sockets:[ shard ])
      in
      fun () -> Router.stop r)

(* --- seeded load generation is reproducible --- *)

let test_loadgen_spec_indices () =
  let a = Loadgen.spec_indices ~seed:42 ~client:0 ~nspecs:3 ~warmup:5 ~count:20 in
  let b = Loadgen.spec_indices ~seed:42 ~client:0 ~nspecs:3 ~warmup:5 ~count:20 in
  Alcotest.(check (array int)) "same seed and client, same stream" a b;
  Alcotest.(check int) "length covers warm-up and measured" 25
    (Array.length a);
  Array.iter
    (fun i ->
      Alcotest.(check bool) "index in range" true (i >= 0 && i < 3))
    a;
  let other_client =
    Loadgen.spec_indices ~seed:42 ~client:1 ~nspecs:3 ~warmup:5 ~count:20
  in
  Alcotest.(check bool) "clients draw split, distinct streams" true
    (a <> other_client);
  let other_seed =
    Loadgen.spec_indices ~seed:43 ~client:0 ~nspecs:3 ~warmup:5 ~count:20
  in
  Alcotest.(check bool) "the seed changes the stream" true (a <> other_seed)

let () =
  Alcotest.run "pdw_service"
    [
      ( "wire",
        [
          Alcotest.test_case "frame round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "clean EOF" `Quick test_wire_eof;
          Alcotest.test_case "malformed frames" `Quick test_wire_bad_header;
          Alcotest.test_case "batched write, buffered read" `Quick
            test_wire_buffered_batch;
          Alcotest.test_case "has_frame sees only the buffer" `Quick
            test_wire_has_frame;
          Alcotest.test_case "split at every byte boundary" `Quick
            test_wire_split_every_byte;
          Alcotest.test_case "truncated final frame" `Quick
            test_wire_truncated_tail;
          QCheck_alcotest.to_alcotest prop_wire_chunking_independent;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trips" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "digest canonicalization" `Quick
            test_protocol_digest;
          Alcotest.test_case "unknown config field" `Quick
            test_protocol_rejects_unknown_config;
          Alcotest.test_case "storage digest separation" `Quick
            test_protocol_storage_digest;
          Alcotest.test_case "malformed park rejected" `Quick
            test_protocol_rejects_bad_park;
          Alcotest.test_case "engine applies the park set" `Quick
            test_engine_park;
          Alcotest.test_case "every listed benchmark synthesizes" `Quick
            test_engine_resolves_every_benchmark;
          QCheck_alcotest.to_alcotest prop_reply_of_string_inverse;
          QCheck_alcotest.to_alcotest prop_reply_of_string_damaged;
          Alcotest.test_case "every other reply round-trips from a string" `Quick
            test_reply_of_string_other_replies;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "LRU eviction and promotion" `Quick test_cache_lru;
          Alcotest.test_case "refresh in place" `Quick test_cache_refresh;
          Alcotest.test_case "one LRU, hammered by domains" `Slow
            test_cache_concurrent_stress;
          Alcotest.test_case "two tiers: promotion and write-through" `Quick
            test_cache_tiers;
        ] );
      ( "plan store",
        [
          Alcotest.test_case "roundtrip, reopen, non-hex refused" `Quick
            test_store_roundtrip;
          Alcotest.test_case "corruption detected and deleted" `Quick
            test_store_corrupt;
          Alcotest.test_case "byte-bounded LRU eviction" `Quick
            test_store_eviction;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounded slots" `Quick test_admission ] );
      ( "pool",
        [
          Alcotest.test_case "every job runs exactly once" `Quick
            test_pool_every_job_once;
          Alcotest.test_case "sequential submits spawn one worker" `Quick
            test_pool_sequential_one_worker;
          Alcotest.test_case "blocked jobs spawn min(N, size) workers" `Quick
            test_pool_blocked_jobs_spawn;
          Alcotest.test_case "submit after shutdown raises" `Quick
            test_pool_submit_after_shutdown;
          Alcotest.test_case "a worker counts its own domain's words" `Quick
            test_pool_worker_words_own_domain;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "plan, cache, byte-identity" `Quick
            test_server_plan_and_cache;
          Alcotest.test_case "ping, version, stats" `Quick
            test_server_simple_ops;
          Alcotest.test_case "bad requests answered" `Quick
            test_server_bad_requests;
          Alcotest.test_case "explicit shed at the limit" `Quick
            test_server_shed;
          Alcotest.test_case "per-request timeout" `Quick test_server_timeout;
          Alcotest.test_case "cold plans run beside a long burn" `Slow
            test_server_cold_beside_burn;
          Alcotest.test_case "one admission bound, any digest" `Slow
            test_server_admission_any_digest;
          Alcotest.test_case "concurrent loadgen, verified" `Slow
            test_server_loadgen;
          Alcotest.test_case "pipelined batch, ordered replies" `Quick
            test_server_pipelined;
          Alcotest.test_case "pipelined cold submits plan side by side" `Quick
            test_server_pipelined_cold;
          Alcotest.test_case "huge pipelined batch, chunked" `Slow
            test_server_pipelined_huge_batch;
          Alcotest.test_case "loadgen no-cache planner workout" `Slow
            test_server_loadgen_no_cache;
          Alcotest.test_case "stats consistent under load" `Slow
            test_server_stats_consistency;
          Alcotest.test_case "loadgen warm-up excluded" `Slow
            test_server_loadgen_warmup;
          Alcotest.test_case "metrics exposition parses and adds up" `Quick
            test_server_metrics;
          Alcotest.test_case "telemetry snapshots and the request ring" `Quick
            test_server_telemetry_and_ring;
          Alcotest.test_case "shutdown request" `Quick
            test_server_shutdown_request;
          Alcotest.test_case "version handshake" `Quick test_server_hello;
          Alcotest.test_case "warm-store restart serves from disk" `Slow
            test_server_store_restart;
          Alcotest.test_case "a cache hit allocates little on the client" `Quick
            test_client_hit_words;
        ] );
      ( "ring",
        [
          Alcotest.test_case "deterministic and balanced" `Quick
            test_ring_determinism_and_balance;
          Alcotest.test_case "node removal moves only its keys" `Quick
            test_ring_minimal_remap;
        ] );
      ( "router",
        [
          Alcotest.test_case "routes, merges, survives a shard kill" `Slow
            test_router_end_to_end;
          Alcotest.test_case "seeded verified campaign through the fleet"
            `Slow test_router_loadgen_seeded;
          Alcotest.test_case "pipelined load never deadlocks the router"
            `Slow test_router_pipelined_no_deadlock;
        ] );
      ( "front end",
        [
          Alcotest.test_case "a non-JSON payload is answered, the connection kept"
            `Quick test_front_end_bad_json;
          Alcotest.test_case "no frame after a shutdown is dispatched" `Quick
            test_front_end_shutdown_ends_batch;
          Alcotest.test_case "frames before bad framing are answered" `Quick
            test_front_end_framing_error;
          Alcotest.test_case "stale socket replaced, live socket refused" `Quick
            test_front_end_bind_probe;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "seeded spec streams are reproducible" `Quick
            test_loadgen_spec_indices;
        ] );
    ]
