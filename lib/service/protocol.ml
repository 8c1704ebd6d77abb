module Json = Pdw_obs.Json
module Pdw = Pdw_wash.Pdw

type method_ = [ `Pdw | `Dawo ]

type source = Benchmark of string | Inline of string

type spec = {
  source : source;
  method_ : method_;
  config : Pdw.config;
  park : int list;
}

(* Bump whenever the frame vocabulary changes incompatibly; the hello
   handshake turns a mismatch into a typed error instead of a frame
   decode failure deep in a pipeline.  Rev 3 added the submit [park]
   field — a rev-2 peer would silently drop it and plan the
   storage-free problem, so the mismatch must be loud. *)
let wire_rev = 3

(* The canonical form's own revision, stamped into every digest
   preimage.  Rev 2 added the [park] field: every digest changed at
   once, so plans cached under the storage-blind form can never answer
   requests in the richer space. *)
let spec_rev = 2

(* Canonical spelling of a park set: sorted, deduped — permutations and
   repeats are the same planning problem and must digest equal. *)
let canonical_park park = List.sort_uniq compare park

type request =
  | Submit of { spec : spec; no_cache : bool }
  | Burn of { ms : int }
  | Hello of { version : string; rev : int }
  | Stats
  | Metrics
  | Version
  | Ping
  | Shutdown

type tier = Memory | Store | Planned

type reply =
  | Plan of {
      cached : bool;
      coalesced : bool;
      tier : tier;
      digest : string;
      wall_ms : float;
      outcome : string;
    }
  | Shed of { in_flight : int; limit : int }
  | Timeout of { after_ms : int }
  | Hello_reply of { version : string; rev : int }
  | Stats_reply of Json.t
  | Metrics_reply of string
  | Version_reply of string
  | Pong
  | Burned of { ms : int }
  | Bye
  | Error of string

let tier_name = function
  | Memory -> "memory"
  | Store -> "store"
  | Planned -> "planned"

let tier_of_name = function
  | "memory" -> Some Memory
  | "store" -> Some Store
  | "planned" -> Some Planned
  | _ -> None

let spec ?(method_ = `Pdw) ?(config = Pdw.default_config) ?(park = []) source
    =
  { source; method_; config; park }

let method_name = function `Pdw -> "pdw" | `Dawo -> "dawo"

let method_of_name = function
  | "pdw" -> Ok `Pdw
  | "dawo" -> Ok `Dawo
  | m -> Result.Error (Printf.sprintf "unknown method %S" m)

(* Every wire-configurable field, fixed order — this exact list is the
   canonical form the digest hashes, so adding a field here changes
   every digest (as it must: old cached plans no longer answer the
   richer request space). *)
let config_to_json (c : Pdw.config) =
  Json.Obj
    [
      ("necessity", Json.Bool c.Pdw.necessity);
      ("integrate", Json.Bool c.Pdw.integrate);
      ("conflict_aware", Json.Bool c.Pdw.conflict_aware);
      ("use_ilp_paths", Json.Bool c.Pdw.use_ilp_paths);
      ("dissolution", Json.Int c.Pdw.dissolution);
      ("max_group_targets", Json.Int c.Pdw.max_group_targets);
      ("grouping_radius", Json.Int c.Pdw.grouping_radius);
      ("alpha", Json.Float c.Pdw.alpha);
      ("beta", Json.Float c.Pdw.beta);
      ("gamma", Json.Float c.Pdw.gamma);
    ]

(* Missing fields keep their defaults, so clients send only what they
   override; unknown fields are rejected (a typo would otherwise
   silently plan the wrong problem AND miss the cache forever). *)
let config_of_json j =
  match j with
  | Json.Obj fields ->
    let known =
      [ "necessity"; "integrate"; "conflict_aware"; "use_ilp_paths";
        "dissolution"; "max_group_targets"; "grouping_radius"; "alpha";
        "beta"; "gamma" ]
    in
    let unknown = List.filter (fun (k, _) -> not (List.mem k known)) fields in
    if unknown <> [] then
      Result.Error
        (Printf.sprintf "unknown config field %S" (fst (List.hd unknown)))
    else begin
      let bool_f k dflt =
        match Json.member k j with
        | Some (Json.Bool b) -> Ok b
        | None -> Ok dflt
        | Some _ -> Result.Error (Printf.sprintf "config.%s: expected bool" k)
      in
      let int_f k dflt =
        match Option.map Json.to_int (Json.member k j) with
        | Some (Some i) -> Ok i
        | None -> Ok dflt
        | Some None -> Result.Error (Printf.sprintf "config.%s: expected int" k)
      in
      let float_f k dflt =
        match Option.map Json.to_float (Json.member k j) with
        | Some (Some f) -> Ok f
        | None -> Ok dflt
        | Some None ->
          Result.Error (Printf.sprintf "config.%s: expected number" k)
      in
      let d = Pdw.default_config in
      let ( let* ) = Result.bind in
      let* necessity = bool_f "necessity" d.Pdw.necessity in
      let* integrate = bool_f "integrate" d.Pdw.integrate in
      let* conflict_aware = bool_f "conflict_aware" d.Pdw.conflict_aware in
      let* use_ilp_paths = bool_f "use_ilp_paths" d.Pdw.use_ilp_paths in
      let* dissolution = int_f "dissolution" d.Pdw.dissolution in
      let* max_group_targets =
        int_f "max_group_targets" d.Pdw.max_group_targets
      in
      let* grouping_radius = int_f "grouping_radius" d.Pdw.grouping_radius in
      let* alpha = float_f "alpha" d.Pdw.alpha in
      let* beta = float_f "beta" d.Pdw.beta in
      let* gamma = float_f "gamma" d.Pdw.gamma in
      Ok
        {
          d with
          Pdw.necessity;
          integrate;
          conflict_aware;
          use_ilp_paths;
          dissolution;
          max_group_targets;
          grouping_radius;
          alpha;
          beta;
          gamma;
        }
    end
  | _ -> Result.Error "config: expected an object"

let canonical_json { source; method_; config; park } =
  let source_fields =
    match source with
    | Benchmark name ->
      [ ("source", Json.Str "benchmark");
        ("benchmark", Json.Str (String.lowercase_ascii name)) ]
    | Inline text ->
      [ ("source", Json.Str "inline"); ("assay", Json.Str text) ]
  in
  Json.Obj
    (( ("spec_rev", Json.Int spec_rev) :: source_fields)
    @ [ ("method", Json.Str (method_name method_));
        ("config", config_to_json config);
        ( "park",
          Json.Arr (List.map (fun i -> Json.Int i) (canonical_park park)) );
      ])

let digest spec =
  Digest.to_hex (Digest.string (Json.to_string (canonical_json spec)))

let request_to_json = function
  | Submit { spec = { source; method_; config; park }; no_cache } ->
    let source_fields =
      match source with
      | Benchmark name -> [ ("benchmark", Json.Str name) ]
      | Inline text -> [ ("assay", Json.Str text) ]
    in
    let park_fields =
      match canonical_park park with
      | [] -> []
      | ids -> [ ("park", Json.Arr (List.map (fun i -> Json.Int i) ids)) ]
    in
    Json.Obj
      (( ("op", Json.Str "submit") :: source_fields)
      @ [ ("method", Json.Str (method_name method_));
          ("config", config_to_json config) ]
      @ park_fields
      @ [ ("no_cache", Json.Bool no_cache) ])
  | Burn { ms } -> Json.Obj [ ("op", Json.Str "burn"); ("ms", Json.Int ms) ]
  | Hello { version; rev } ->
    Json.Obj
      [
        ("op", Json.Str "hello");
        ("version", Json.Str version);
        ("rev", Json.Int rev);
      ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Metrics -> Json.Obj [ ("op", Json.Str "metrics") ]
  | Version -> Json.Obj [ ("op", Json.Str "version") ]
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let request_of_json j =
  let ( let* ) = Result.bind in
  let str k = Option.bind (Json.member k j) Json.to_str in
  match str "op" with
  | None -> Result.Error "request: missing \"op\""
  | Some "submit" ->
    let* source =
      match (str "benchmark", str "assay") with
      | Some name, None -> Ok (Benchmark name)
      | None, Some text -> Ok (Inline text)
      | Some _, Some _ ->
        Result.Error "submit: give \"benchmark\" or \"assay\", not both"
      | None, None -> Result.Error "submit: missing \"benchmark\" or \"assay\""
    in
    let* method_ =
      match str "method" with
      | None -> Ok `Pdw
      | Some m -> method_of_name m
    in
    let* config =
      match Json.member "config" j with
      | None -> Ok Pdw_wash.Pdw.default_config
      | Some c -> config_of_json c
    in
    let* park =
      match Json.member "park" j with
      | None -> Ok []
      | Some (Json.Arr ids) ->
        let ints = List.map Json.to_int ids in
        if List.exists Option.is_none ints then
          Result.Error "submit: \"park\" must list operation ids (ints)"
        else
          let ids = List.filter_map Fun.id ints in
          if List.exists (fun i -> i < 0) ids then
            Result.Error "submit: negative operation id in \"park\""
          else Ok ids
      | Some _ -> Result.Error "submit: \"park\" must be an array"
    in
    let no_cache =
      match Json.member "no_cache" j with
      | Some (Json.Bool b) -> b
      | Some _ | None -> false
    in
    Ok (Submit { spec = { source; method_; config; park }; no_cache })
  | Some "burn" -> (
    match Option.bind (Json.member "ms" j) Json.to_int with
    | Some ms when ms >= 0 -> Ok (Burn { ms })
    | Some _ | None -> Result.Error "burn: missing non-negative \"ms\"")
  | Some "hello" -> (
    match (str "version", Option.bind (Json.member "rev" j) Json.to_int) with
    | Some version, Some rev -> Ok (Hello { version; rev })
    | _ -> Result.Error "hello: missing \"version\" or \"rev\"")
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "version" -> Ok Version
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some op -> Result.Error (Printf.sprintf "unknown op %S" op)

let request_of_string s =
  match Json.parse s with
  | Ok j -> request_of_json j
  | Error m -> Result.Error ("bad JSON payload: " ^ m)

let reply_to_json = function
  | Plan { cached; coalesced; tier; digest; wall_ms; outcome } ->
    let outcome_json =
      (* The outcome is Json_export text; to_string of the parse is
         byte-identical (the round-trip property), so embedding it as a
         value — not an escaped string — is safe. *)
      match Json.parse outcome with
      | Ok j -> j
      | Error _ -> Json.Str outcome
    in
    Json.Obj
      [
        ("status", Json.Str "ok");
        ("cached", Json.Bool cached);
        ("coalesced", Json.Bool coalesced);
        ("tier", Json.Str (tier_name tier));
        ("digest", Json.Str digest);
        ("wall_ms", Json.Float wall_ms);
        ("outcome", outcome_json);
      ]
  | Shed { in_flight; limit } ->
    Json.Obj
      [
        ("status", Json.Str "shed");
        ("in_flight", Json.Int in_flight);
        ("limit", Json.Int limit);
      ]
  | Timeout { after_ms } ->
    Json.Obj
      [ ("status", Json.Str "timeout"); ("after_ms", Json.Int after_ms) ]
  | Hello_reply { version; rev } ->
    Json.Obj
      [
        ("status", Json.Str "ok");
        ( "hello",
          Json.Obj
            [ ("version", Json.Str version); ("rev", Json.Int rev) ] );
      ]
  | Stats_reply stats ->
    Json.Obj [ ("status", Json.Str "ok"); ("stats", stats) ]
  | Metrics_reply text ->
    Json.Obj [ ("status", Json.Str "ok"); ("metrics", Json.Str text) ]
  | Version_reply v ->
    Json.Obj [ ("status", Json.Str "ok"); ("version", Json.Str v) ]
  | Pong -> Json.Obj [ ("status", Json.Str "ok"); ("pong", Json.Bool true) ]
  | Burned { ms } ->
    Json.Obj [ ("status", Json.Str "ok"); ("burned_ms", Json.Int ms) ]
  | Bye -> Json.Obj [ ("status", Json.Str "ok"); ("bye", Json.Bool true) ]
  | Error m ->
    Json.Obj [ ("status", Json.Str "error"); ("message", Json.Str m) ]

(* The serving hot path: a [Plan] reply's envelope is tiny but its
   outcome can be tens of kilobytes, and [reply_to_json] re-parses and
   re-prints that text on every reply.  The outcome is [Json_export]
   text whose parse/print round-trip is byte-identical (the property
   [reply_to_json] already relies on), so splicing it verbatim into a
   hand-built envelope produces the same bytes with zero parsing.  The
   server guarantees the splice is safe by checking the round-trip once
   when the plan is computed (Server.validate_outcome) — before the
   outcome can reach the cache or a frame — so a violated invariant
   turns into an error reply there, never a malformed frame here.  The
   envelope mirrors [Pdw_obs.Json]'s compact printer exactly; anything
   that is not a JSON object falls back to the codec. *)
let reply_to_string reply =
  match reply with
  | Plan { cached; coalesced; tier; digest; wall_ms; outcome }
    when String.length outcome > 0 && outcome.[0] = '{' ->
    let b = Buffer.create (String.length outcome + 128) in
    Buffer.add_string b "{\"status\":\"ok\",\"cached\":";
    Buffer.add_string b (if cached then "true" else "false");
    Buffer.add_string b ",\"coalesced\":";
    Buffer.add_string b (if coalesced then "true" else "false");
    Buffer.add_string b ",\"tier\":\"";
    Buffer.add_string b (tier_name tier);
    Buffer.add_string b "\",\"digest\":";
    Buffer.add_string b (Json.to_string (Json.Str digest));
    Buffer.add_string b ",\"wall_ms\":";
    Buffer.add_string b (Json.to_string (Json.Float wall_ms));
    Buffer.add_string b ",\"outcome\":";
    Buffer.add_string b outcome;
    Buffer.add_char b '}';
    Buffer.contents b
  | reply -> Json.to_string (reply_to_json reply)

let reply_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match str "status" with
  | Some "shed" -> (
    match (int "in_flight", int "limit") with
    | Some in_flight, Some limit -> Ok (Shed { in_flight; limit })
    | _ -> Result.Error "shed reply: missing fields")
  | Some "timeout" -> (
    match int "after_ms" with
    | Some after_ms -> Ok (Timeout { after_ms })
    | None -> Result.Error "timeout reply: missing after_ms")
  | Some "error" -> (
    match str "message" with
    | Some m -> Ok (Error m)
    | None -> Result.Error "error reply: missing message")
  | Some "ok" -> (
    match Json.member "outcome" j with
    | Some outcome_json ->
      let get_bool k =
        match Json.member k j with Some (Json.Bool b) -> b | _ -> false
      in
      let cached = get_bool "cached" in
      (* Replies from a pre-tier peer carry no "tier"; infer the best
         equivalent from the cached flag. *)
      let tier =
        match Option.bind (str "tier") tier_of_name with
        | Some t -> t
        | None -> if cached then Memory else Planned
      in
      Ok
        (Plan
           {
             cached;
             coalesced = get_bool "coalesced";
             tier;
             digest = Option.value (str "digest") ~default:"";
             wall_ms =
               Option.value
                 (Option.bind (Json.member "wall_ms" j) Json.to_float)
                 ~default:0.0;
             outcome = Json.to_string outcome_json;
           })
    | None -> (
      match Json.member "hello" j with
      | Some h -> (
        let hstr k = Option.bind (Json.member k h) Json.to_str in
        match (hstr "version", Option.bind (Json.member "rev" h) Json.to_int)
        with
        | Some version, Some rev -> Ok (Hello_reply { version; rev })
        | _ -> Result.Error "hello reply: missing fields")
      | None -> (
      match Json.member "stats" j with
      | Some stats -> Ok (Stats_reply stats)
      | None -> (
        match Option.bind (Json.member "metrics" j) Json.to_str with
        | Some text -> Ok (Metrics_reply text)
        | None -> (
        match str "version" with
        | Some v -> Ok (Version_reply v)
        | None -> (
          match int "burned_ms" with
          | Some ms -> Ok (Burned { ms })
          | None ->
            if Json.member "bye" j <> None then Ok Bye
            else if Json.member "pong" j <> None then Ok Pong
            else Result.Error "ok reply: unrecognized shape"))))))
  | Some s -> Result.Error (Printf.sprintf "unknown status %S" s)
  | None -> Result.Error "reply: missing \"status\""

(* --- reading a reply frame ------------------------------------------- *)

(* The offset just past [lit] when [s] holds it at offset [i], else -1. *)
let past s i lit =
  let len = String.length lit in
  let rec same k =
    k = len || (String.unsafe_get s (i + k) = String.unsafe_get lit k && same (k + 1))
  in
  if i >= 0 && i + len <= String.length s && same 0 then i + len else -1

let flag_at s i =
  let j = past s i "true" in
  if j >= 0 then Some (true, j)
  else
    let j = past s i "false" in
    if j >= 0 then Some (false, j) else None

let tier_at s i =
  List.find_map
    (fun tier ->
      let j = past s i (tier_name tier) in
      if j >= 0 then Some (tier, j) else None)
    [ Memory; Store; Planned ]

(* A string body from [i] up to its closing quote, when it holds no
   escape: the offset of that quote, else -1. *)
let rec plain_end s i =
  if i < 0 || i >= String.length s then -1
  else
    match String.unsafe_get s i with
    | '"' -> i
    | '\\' -> -1
    | _ -> plain_end s (i + 1)

(* A [Plan] frame in exactly the envelope [reply_to_string] writes,
   read in place: the six envelope fields are matched where that
   printer puts them, and the outcome is checked by [Json.scan] to be
   one well-formed value running up to the frame's closing brace, then
   cut out whole.  [None] for any other frame. *)
let plan_of_frame s =
  let n = String.length s in
  let ( let* ) = Option.bind in
  let* cached, i = flag_at s (past s 0 "{\"status\":\"ok\",\"cached\":") in
  let* coalesced, i = flag_at s (past s i ",\"coalesced\":") in
  let* tier, i = tier_at s (past s i ",\"tier\":\"") in
  let d = past s i "\",\"digest\":\"" in
  let d_end = plain_end s d in
  let w = past s d_end "\",\"wall_ms\":" in
  let w_end = Json.scan s w in
  let o = past s w_end ",\"outcome\":" in
  let o_end = Json.scan s o in
  let* wall_ms =
    if o_end <> n - 1 || s.[o_end] <> '}' then None
    else
      match Json.parse (String.sub s w (w_end - w)) with
      | Ok v -> Json.to_float v
      | Error _ -> None
  in
  Some
    (Plan
       {
         cached;
         coalesced;
         tier;
         digest = String.sub s d (d_end - d);
         wall_ms;
         outcome = String.sub s o (o_end - o);
       })

let reply_of_string s =
  match plan_of_frame s with
  | Some reply -> Ok reply
  | None -> (
    match Json.parse s with
    | Ok j -> reply_of_json j
    | Error m -> Result.Error ("bad JSON payload: " ^ m))
