module Json = Pdw_obs.Json
module Histogram = Pdw_obs.Histogram
module Clock = Pdw_obs.Clock
module Expo = Pdw_obs.Expo

(* --- the consistent-hash ring --------------------------------------- *)

module Ring = struct
  (* Each node contributes [vnodes] points on a 63-bit circle (MD5 of
     "id#k"); a key belongs to the first point clockwise from its own
     hash.  Removing a node deletes only that node's points, so only
     the keys that mapped to it move — the property that lets a shard
     die without reshuffling the whole fleet's cache locality. *)
  type t = { points : (int * string) array }

  let hash_point s =
    let d = Digest.string s in
    let x = ref 0 in
    for i = 0 to 7 do
      x := (!x lsl 8) lor Char.code d.[i]
    done;
    !x land max_int

  let create ~nodes ~vnodes =
    let vnodes = max 1 vnodes in
    let points =
      List.concat_map
        (fun id ->
          List.init vnodes (fun k ->
              (hash_point (Printf.sprintf "%s#%d" id k), id)))
        nodes
      |> Array.of_list
    in
    Array.sort compare points;
    { points }

  let size t = Array.length t.points

  let lookup t key =
    let n = Array.length t.points in
    if n = 0 then None
    else begin
      let h = hash_point key in
      (* First point with hash >= h, wrapping to points.(0). *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
      done;
      Some (snd t.points.(if !lo = n then 0 else !lo))
    end
end

(* --- configuration --------------------------------------------------- *)

type config = {
  socket_path : string;
  shard_sockets : string list;
  vnodes : int;
}

let default_config ~socket_path ~shard_sockets =
  { socket_path; shard_sockets; vnodes = 64 }

(* Re-forwards of one request after its shard dies mid-flight, and the
   period at which down shards are probed for reconnection. *)
let max_retries = 3
let reconnect_s = 0.5

(* --- backends -------------------------------------------------------- *)

(* A waiter is one forwarded frame's promise: the shard's reply as raw
   frame bytes.  The router never parses (or re-serializes) reply
   payloads on the forwarding path — a shard's bytes go to the client
   verbatim, which keeps byte-identity trivial and keeps a ~20 KB plan
   outcome from costing a JSON round-trip per hop.  [Lost] means the
   backend died before answering; the front end re-forwards (planning
   is deterministic and idempotent, so a retried submit costs a replan
   at worst, never a wrong answer). *)
type waiter = {
  mutable w_state : [ `Waiting | `Reply of string | `Lost ];
  w_m : Mutex.t;
  w_c : Condition.t;
}

(* One persistent pipelined connection.  [wlock] is held across a
   frame's enqueue and its write, so queue order is wire order, and the
   backend answers a connection's frames strictly in sequence — the
   reader thread fulfils waiters in pop order with no request ids on
   the wire at all.  [qlock] guards only the waiter queue and [alive],
   and is never held across a socket write: a reader that needed the
   write side's lock could not drain replies while a write blocked, the
   shard would stop reading once its replies backed up, and neither
   side would move again. *)
type conn = {
  fd : Unix.file_descr;
  rd : Wire.Buffered.t;
  mutable alive : bool;
  waiters : waiter Queue.t;
  qlock : Mutex.t;
  wlock : Mutex.t;
}

type backend_state = Connected of conn | Down of string

type backend = {
  b_id : int;
  b_path : string;
  mutable b_state : backend_state;
  b_lock : Mutex.t;
  h_forward : Histogram.t;  (* forward round-trip per reply (ms) *)
  b_forwarded : int Atomic.t;
}

type t = {
  cfg : config;
  backends : backend array;
  mutable ring : Ring.t;  (* over live backend paths *)
  ring_lock : Mutex.t;
  by_path : (string, backend) Hashtbl.t;
  c_forwarded : int Atomic.t;
  c_retries : int Atomic.t;
  c_rerings : int Atomic.t;
  c_no_shard : int Atomic.t;
  burn_rr : int Atomic.t;
  started_at : float;
  listener : Listener.t;  (* front-end socket, connections and lifecycle *)
}

let config t = t.cfg

let fulfil w state =
  Mutex.lock w.w_m;
  w.w_state <- state;
  Condition.signal w.w_c;
  Mutex.unlock w.w_m

let await w =
  Mutex.lock w.w_m;
  while w.w_state = `Waiting do
    Condition.wait w.w_c w.w_m
  done;
  let s = w.w_state in
  Mutex.unlock w.w_m;
  s

let live_paths t =
  Array.to_list t.backends
  |> List.filter_map (fun b ->
         match b.b_state with
         | Connected _ -> Some b.b_path
         | Down _ -> None)

let rebuild_ring t =
  Mutex.lock t.ring_lock;
  t.ring <- Ring.create ~nodes:(live_paths t) ~vnodes:t.cfg.vnodes;
  Mutex.unlock t.ring_lock

(* Take a backend down: flip the state, fail every queued waiter (their
   requests re-route), close the socket, shrink the ring.  Both the
   reader thread and a failed writer can land here; the first one in
   does the work. *)
let mark_down t b msg =
  Mutex.lock b.b_lock;
  let conn =
    match b.b_state with
    | Connected c ->
      b.b_state <- Down msg;
      Some c
    | Down _ -> None
  in
  Mutex.unlock b.b_lock;
  match conn with
  | None -> ()
  | Some c ->
    Mutex.lock c.qlock;
    c.alive <- false;
    let orphans = Queue.fold (fun acc w -> w :: acc) [] c.waiters in
    Queue.clear c.waiters;
    Mutex.unlock c.qlock;
    List.iter (fun w -> fulfil w `Lost) orphans;
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Atomic.incr t.c_rerings;
    rebuild_ring t;
    Printf.eprintf "[pdw-router] shard %s down: %s\n%!" b.b_path msg

(* The reader side of one backend connection: every reply frame pops
   exactly one waiter, in order.  EOF or garbage fails the connection
   (and everything still queued on it). *)
let reader_loop t b c =
  let die msg = mark_down t b msg in
  try
    let rec loop () =
      match Wire.Buffered.read_frame c.rd with
      | None -> die "connection closed"
      | Some reply ->
        let w =
          Mutex.lock c.qlock;
          let w = try Some (Queue.pop c.waiters) with Queue.Empty -> None in
          Mutex.unlock c.qlock;
          w
        in
        (match w with
        | Some w ->
          fulfil w (`Reply reply);
          loop ()
        | None -> die "unsolicited reply frame")
    in
    loop ()
  with
  | Wire.Protocol_error m -> die m
  | Unix.Unix_error (e, _, _) -> die (Unix.error_message e)
  | Sys_error m -> die m

(* Connect + version handshake.  The hello round-trip happens before
   the reader thread exists, so a rev mismatch is a clean typed error
   string on this path — never a decode failure mid-pipeline. *)
let connect_backend t b =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    let fail msg =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
    in
    match Unix.connect fd (Unix.ADDR_UNIX b.b_path) with
    | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
    | () -> (
      let rd = Wire.Buffered.create fd in
      match
        Wire.write_json fd
          (Protocol.request_to_json
             (Protocol.Hello
                { version = Version.version; rev = Protocol.wire_rev }));
        Wire.Buffered.read_frame rd
      with
      | exception Wire.Protocol_error m -> fail m
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
      | None -> fail "closed during handshake"
      | Some frame -> (
        match Protocol.reply_of_string frame with
        | Ok (Protocol.Hello_reply { rev; _ }) when rev = Protocol.wire_rev ->
          let c =
            {
              fd;
              rd;
              alive = true;
              waiters = Queue.create ();
              qlock = Mutex.create ();
              wlock = Mutex.create ();
            }
          in
          Mutex.lock b.b_lock;
          b.b_state <- Connected c;
          Mutex.unlock b.b_lock;
          ignore (Thread.create (fun () -> reader_loop t b c) ());
          Ok ()
        | Ok (Protocol.Hello_reply { version; rev }) ->
          fail
            (Printf.sprintf
               "protocol rev mismatch: shard %s speaks wire rev %d, router \
                speaks rev %d"
               version rev Protocol.wire_rev)
        | Ok (Protocol.Error m) -> fail m
        | Ok _ -> fail "unexpected handshake reply"
        | Error m -> fail (Printf.sprintf "bad handshake reply: %s" m))))

let try_connect t b =
  match connect_backend t b with
  | Ok () ->
    rebuild_ring t;
    true
  | Error msg ->
    Mutex.lock b.b_lock;
    b.b_state <- Down msg;
    Mutex.unlock b.b_lock;
    false

(* Forward one raw request frame: enqueue the waiter and write under
   [wlock].  [Error `Down] sends the caller back to the ring. *)
let forward_to t b raw =
  match b.b_state with
  | Down _ -> Error `Down
  | Connected c ->
    let w =
      { w_state = `Waiting; w_m = Mutex.create (); w_c = Condition.create () }
    in
    Mutex.lock c.wlock;
    Mutex.lock c.qlock;
    let alive = c.alive in
    if alive then Queue.push w c.waiters;
    Mutex.unlock c.qlock;
    let sent =
      alive
      && match Wire.write_frame c.fd raw with () -> true | exception _ -> false
    in
    Mutex.unlock c.wlock;
    if sent then begin
      Atomic.incr t.c_forwarded;
      Atomic.incr b.b_forwarded;
      Ok w
    end
    else begin
      (* A frame that never (fully) left breaks the connection for
         everyone; failing it over also fails this waiter. *)
      if alive then mark_down t b "write failed";
      Error `Down
    end

let backend_of_path t path = Hashtbl.find_opt t.by_path path

(* Pick the shard for [digest]: the cached ring normally, an ad-hoc
   ring over the still-untried live shards on the (rare) retry path. *)
let pick t digest ~visited =
  let ring =
    if visited = [] then begin
      Mutex.lock t.ring_lock;
      let r = t.ring in
      Mutex.unlock t.ring_lock;
      r
    end
    else
      Ring.create
        ~nodes:
          (List.filter (fun p -> not (List.mem p visited)) (live_paths t))
        ~vnodes:t.cfg.vnodes
  in
  Option.bind (Ring.lookup ring digest) (backend_of_path t)

let err_frame msg = Protocol.reply_to_string (Protocol.Error msg)

let no_live t =
  Atomic.incr t.c_no_shard;
  err_frame "no live shard available"

(* Route one digest-keyed raw frame with bounded retry + re-ring: a
   shard that dies mid-flight fails the waiter, and the frame
   re-forwards to the next live shard on the ring.  Safe because
   planning is deterministic: a duplicate submit returns the same
   bytes. *)
let route t raw digest =
  let rec go visited attempts =
    if attempts > max_retries then
      err_frame "shard lost mid-request (retries exhausted)"
    else
      match pick t digest ~visited with
      | None -> no_live t
      | Some b -> (
        let t0 = Clock.now_ms () in
        match forward_to t b raw with
        | Error `Down -> go (b.b_path :: visited) attempts
        | Ok w -> (
          match await w with
          | `Reply r ->
            Histogram.record b.h_forward (Clock.now_ms () -. t0);
            r
          | `Lost | `Waiting ->
            Atomic.incr t.c_retries;
            go (b.b_path :: visited) (attempts + 1)))
  in
  go [] 0

(* Burns carry no digest: round-robin over live backends. *)
let route_burn t raw =
  let live = live_paths t in
  match live with
  | [] -> no_live t
  | _ -> (
    let k = Atomic.fetch_and_add t.burn_rr 1 in
    let path = List.nth live (k mod List.length live) in
    match backend_of_path t path with
    | None -> no_live t
    | Some b -> (
      match forward_to t b raw with
      | Error `Down -> no_live t
      | Ok w -> (
        match await w with
        | `Reply r -> r
        | `Lost | `Waiting -> err_frame "shard lost mid-request")))

(* Ask every live shard one question (typed; off the hot path): the
   request is serialized once, and each shard's raw answer is parsed
   back into the reply type.  [None] per shard with no usable answer
   (down, died mid-request, unparseable). *)
let broadcast t req =
  let raw = Json.to_string (Protocol.request_to_json req) in
  Array.to_list t.backends
  |> List.map (fun b ->
         match forward_to t b raw with
         | Error `Down -> (b, None)
         | Ok w -> (
           match await w with
           | `Reply r -> (
             match Protocol.reply_of_string r with
             | Ok reply -> (b, Some reply)
             | Error _ -> (b, None))
           | `Lost | `Waiting -> (b, None)))

(* --- fleet-merged stats ---------------------------------------------- *)

let up b = match b.b_state with Connected _ -> true | Down _ -> false

let live_count t =
  Array.fold_left (fun n b -> if up b then n + 1 else n) 0 t.backends

let down_reason b =
  match b.b_state with Connected _ -> None | Down m -> Some m

(* Field-wise sum of same-shaped JSON objects of ints, one level deep —
   how per-shard "requests"/"cache" objects roll up into fleet
   totals. *)
let sum_int_fields objs =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun j ->
      match j with
      | Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            match Json.to_int v with
            | Some i ->
              if not (Hashtbl.mem acc k) then order := k :: !order;
              Hashtbl.replace acc k
                (i + Option.value (Hashtbl.find_opt acc k) ~default:0)
            | None -> ())
          fields
      | _ -> ())
    objs;
  Json.Obj
    (List.rev_map (fun k -> (k, Json.Int (Hashtbl.find acc k))) !order)

let merged_forward_hist t =
  Array.fold_left
    (fun acc b -> Histogram.merge acc b.h_forward)
    (Histogram.like t.backends.(0).h_forward)
    t.backends

let stats_json t =
  let shard_stats = broadcast t Protocol.Stats in
  let procs =
    List.map
      (fun (b, reply) ->
        Json.Obj
          ([
             ("proc", Json.Int b.b_id);
             ("socket", Json.Str b.b_path);
             ("up", Json.Bool (up b));
             ("forwarded", Json.Int (Atomic.get b.b_forwarded));
           ]
          @ (match down_reason b with
            | Some m -> [ ("error", Json.Str m) ]
            | None -> [])
          @
          match reply with
          | Some (Protocol.Stats_reply j) -> [ ("stats", j) ]
          | _ -> []))
      shard_stats
  in
  let gather k =
    List.filter_map
      (fun (_, reply) ->
        match reply with
        | Some (Protocol.Stats_reply j) -> Json.member k j
        | _ -> None)
      shard_stats
  in
  let h = merged_forward_hist t in
  Json.Obj
    [
      ("version", Json.Str Version.version);
      ("role", Json.Str "router");
      ("wire_rev", Json.Int Protocol.wire_rev);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ( "fleet",
        Json.Obj
          [
            ("procs_total", Json.Int (Array.length t.backends));
            ("procs_live", Json.Int (live_count t));
            ("forwarded", Json.Int (Atomic.get t.c_forwarded));
            ("retries", Json.Int (Atomic.get t.c_retries));
            ("rerings", Json.Int (Atomic.get t.c_rerings));
            ("no_live_shard", Json.Int (Atomic.get t.c_no_shard));
            ("vnodes", Json.Int t.cfg.vnodes);
          ] );
      ("requests", sum_int_fields (gather "requests"));
      ("cache", sum_int_fields (gather "cache"));
      ( "forward_ms",
        Json.Obj
          [
            ("samples", Json.Int (Histogram.count h));
            ("mean", Json.Float (Histogram.mean h));
            ("p50", Json.Float (Histogram.quantile h 0.50));
            ("p95", Json.Float (Histogram.quantile h 0.95));
            ("p99", Json.Float (Histogram.quantile h 0.99));
          ] );
      ("procs", Json.Arr procs);
    ]

(* The fleet scrape surface: the router's own families, a per-process
   breakdown pulled out of each shard's exposition, then every shard
   family merged by summation ([Expo.merge] — exact for counters and
   histogram buckets, fleet-total semantics for gauges).  Per-shard
   uptimes are dropped from the merge (a sum of uptimes reads as
   nothing); the router's own uptime stands in. *)
let metrics_text t =
  let e = Expo.create () in
  let fl = float_of_int in
  Expo.gauge e ~name:"pdw_router_uptime_seconds"
    ~help:"Seconds since the router started"
    [ ([], Unix.gettimeofday () -. t.started_at) ];
  Expo.gauge e ~name:"pdw_fleet_procs"
    ~help:"Configured shard processes"
    [ ([], fl (Array.length t.backends)) ];
  Expo.gauge e ~name:"pdw_fleet_procs_live"
    ~help:"Shard processes currently connected"
    [ ([], fl (live_count t)) ];
  Expo.counter e ~name:"pdw_router_forwarded_total"
    ~help:"Frames forwarded to shard processes"
    [ ([], fl (Atomic.get t.c_forwarded)) ];
  Expo.counter e ~name:"pdw_router_retries_total"
    ~help:"Requests re-forwarded after a shard died mid-flight"
    [ ([], fl (Atomic.get t.c_retries)) ];
  Expo.counter e ~name:"pdw_router_rerings_total"
    ~help:"Ring rebuilds triggered by shard death"
    [ ([], fl (Atomic.get t.c_rerings)) ];
  Expo.counter e ~name:"pdw_router_no_live_shard_total"
    ~help:"Requests failed because no shard was live"
    [ ([], fl (Atomic.get t.c_no_shard)) ];
  Expo.gauge e ~name:"pdw_proc_up"
    ~help:"Whether each shard process is connected (0/1)"
    (Array.to_list
       (Array.map
          (fun b ->
            ([ ("proc", string_of_int b.b_id) ], if up b then 1.0 else 0.0))
          t.backends));
  Expo.counter e ~name:"pdw_proc_forwarded_total"
    ~help:"Frames forwarded to each shard process"
    (Array.to_list
       (Array.map
          (fun b ->
            ( [ ("proc", string_of_int b.b_id) ],
              fl (Atomic.get b.b_forwarded) ))
          t.backends));
  Expo.histogram e ~name:"pdw_router_forward_ms"
    ~help:"Forward round-trip per reply (ms), merged over shards"
    (merged_forward_hist t);
  Expo.histograms e ~name:"pdw_proc_forward_ms"
    ~help:"Per-shard-process forward round-trip (ms)"
    (Array.to_list
       (Array.map
          (fun b -> ([ ("proc", string_of_int b.b_id) ], b.h_forward))
          t.backends));
  (* Scrape the shards. *)
  let scraped =
    broadcast t Protocol.Metrics
    |> List.filter_map (fun (b, reply) ->
           match reply with
           | Some (Protocol.Metrics_reply text) -> (
             match Expo.parse text with
             | Ok fams -> Some (b, fams)
             | Error _ -> None)
           | _ -> None)
  in
  (* Per-process request tallies, for scrapers asserting the fleet adds
     up: sum over procs of any kind = the merged pdw_requests_*_total
     family below. *)
  let proc_rows =
    List.concat_map
      (fun (b, fams) ->
        List.concat_map
          (fun (f : Expo.family) ->
            let prefix = "pdw_requests_" and suffix = "_total" in
            let n = f.Expo.fam_name in
            if
              String.length n
              > String.length prefix + String.length suffix
              && String.sub n 0 (String.length prefix) = prefix
              && String.sub n
                   (String.length n - String.length suffix)
                   (String.length suffix)
                 = suffix
            then
              let kind =
                String.sub n (String.length prefix)
                  (String.length n
                  - String.length prefix
                  - String.length suffix)
              in
              List.filter_map
                (fun (s : Expo.sample) ->
                  if s.Expo.labels = [] then
                    Some
                      ( [ ("proc", string_of_int b.b_id); ("kind", kind) ],
                        s.Expo.value )
                  else None)
                f.Expo.fam_samples
            else [])
          fams)
      scraped
  in
  if proc_rows <> [] then
    Expo.counter e ~name:"pdw_proc_requests_total"
      ~help:"Per-shard-process request tallies by kind" proc_rows;
  let merged =
    Expo.merge (List.map snd scraped)
    |> List.filter (fun (f : Expo.family) ->
           not (String.equal f.Expo.fam_name "pdw_uptime_seconds"))
  in
  Expo.write e merged;
  Expo.contents e

(* --- the front end --------------------------------------------------- *)

(* Dispatch one request frame.  The request was parsed (requests are
   small — the verb and, for submits, the digest preimage must be known)
   but is *forwarded as the client's own bytes*; the reply comes back as
   the shard's own bytes.  Digest-keyed work is forwarded now and only
   awaited at resolve time, so a pipelined batch from one client
   connection is in flight on the shards concurrently — the router adds
   a hop, not a serialization point.  The resolver returns the reply
   frame payload verbatim. *)
let dispatch t raw req : unit -> string =
  let local reply () = Protocol.reply_to_string (reply ()) in
  match req with
  | Protocol.Ping -> local (fun () -> Protocol.Pong)
  | Protocol.Version -> local (fun () -> Protocol.Version_reply Version.version)
  | Protocol.Stats -> local (fun () -> Protocol.Stats_reply (stats_json t))
  | Protocol.Metrics ->
    local (fun () -> Protocol.Metrics_reply (metrics_text t))
  | Protocol.Hello _ | Protocol.Shutdown ->
    (* The listener answers these itself and never dispatches them. *)
    local (fun () -> Protocol.Error "internal: front-end verb dispatched")
  | Protocol.Burn _ -> fun () -> route_burn t raw
  | Protocol.Submit { spec; _ } -> (
    let digest = Protocol.digest spec in
    (* First forward happens here (dispatch time); recovery, if the
       shard dies before answering, happens at resolve time. *)
    let first =
      match pick t digest ~visited:[] with
      | None -> None
      | Some b -> (
        match forward_to t b raw with
        | Error `Down -> None (* raced a death; resolve retries *)
        | Ok w -> Some (b, w, Clock.now_ms ()))
    in
    fun () ->
      match first with
      | None -> route t raw digest
      | Some (b, w, t0) -> (
        match await w with
        | `Reply r ->
          Histogram.record b.h_forward (Clock.now_ms () -. t0);
          r
        | `Lost | `Waiting ->
          Atomic.incr t.c_retries;
          route t raw digest))

(* Down shards are retried forever at a gentle cadence: a shard that
   restarts (or first comes up after the router) rejoins the ring on
   its next probe, warm from the shared plan store. *)
let reconnect_loop t =
  while not (Listener.stopping t.listener) do
    Thread.delay reconnect_s;
    if not (Listener.stopping t.listener) then
      Array.iter
        (fun b ->
          match b.b_state with
          | Down _ -> ignore (try_connect t b)
          | Connected _ -> ())
        t.backends
  done

let start cfg =
  if cfg.shard_sockets = [] then
    invalid_arg "Router.start: no shard sockets";
  let listener = Listener.bind ~role:"router" cfg.socket_path in
  let backends =
    Array.of_list
      (List.mapi
         (fun i path ->
           {
             b_id = i;
             b_path = path;
             b_state = Down "not yet connected";
             b_lock = Mutex.create ();
             h_forward = Histogram.create ();
             b_forwarded = Atomic.make 0;
           })
         cfg.shard_sockets)
  in
  let t =
    {
      cfg;
      backends;
      ring = Ring.create ~nodes:[] ~vnodes:cfg.vnodes;
      ring_lock = Mutex.create ();
      by_path = Hashtbl.create 16;
      c_forwarded = Atomic.make 0;
      c_retries = Atomic.make 0;
      c_rerings = Atomic.make 0;
      c_no_shard = Atomic.make 0;
      burn_rr = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      listener;
    }
  in
  Array.iter (fun b -> Hashtbl.replace t.by_path b.b_path b) backends;
  Array.iter (fun b -> ignore (try_connect t b)) backends;
  ignore (Thread.create reconnect_loop t);
  (* A [shutdown] stops the whole fleet: every live shard gets one (and
     answers [Bye] before its own teardown), then the router stops.
     Teardown drops the backend connections; their reader threads exit
     on EOF. *)
  Listener.serve listener ~dispatch:(dispatch t)
    ~on_shutdown:(fun () -> ignore (broadcast t Protocol.Shutdown))
    ~teardown:(fun () ->
      Array.iter (fun b -> mark_down t b "router stopping") t.backends)
    ();
  t

let wait t = Listener.wait t.listener
let stop t = Listener.stop t.listener
