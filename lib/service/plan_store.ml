(* On-disk format: a digest-named file per plan,

     pdwplan1 <crc32-hex8> <payload-bytes>\n<payload>

   The header carries both a CRC and an exact length, so a torn or
   truncated write (we do not fsync; durability is best-effort, the
   store is a cache) is always detected on read and never served.
   Writers land bytes in a pid-unique temp file and [rename] it into
   place — atomic on POSIX — so readers in this or any other shard
   process only ever observe complete files, and two processes racing
   to persist the same digest both win (same content, same name). *)

let magic = "pdwplan1"
let suffix = ".plan"

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand
             (Int32.logxor !c (Int32.of_int (Char.code ch)))
             0xFFl)
      in
      c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* Digests are hex strings; anything else never reaches the filesystem
   (a hostile digest would otherwise be a path). *)
let safe_digest d =
  String.length d > 0
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       d

(* In-memory LRU index over the directory: recency-threaded
   doubly-linked list, byte-bounded.  Rebuilt on [open_] from a
   directory scan in mtime order, so recency survives restarts to file
   -system timestamp precision. *)
type node = {
  key : string;
  size : int;  (* whole file, header included *)
  mutable prev : node option;  (* towards head (most recent) *)
  mutable next : node option;  (* towards tail (eviction candidate) *)
}

type t = {
  dir : string;
  max_bytes : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable tmp_seq : int;
  lock : Mutex.t;
}

type stats = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  corrupt : int;
  entries : int;
  bytes : int;
  max_bytes : int;
}

let dir (t : t) = t.dir

let path_of (t : t) digest = Filename.concat t.dir (digest ^ suffix)

let unlink_quiet p = try Sys.remove p with Sys_error _ -> ()

let unlink_node (s : t) n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front (s : t) n =
  n.next <- s.head;
  n.prev <- None;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let drop (s : t) n =
  unlink_node s n;
  Hashtbl.remove s.table n.key;
  s.bytes <- s.bytes - n.size

let header payload =
  Printf.sprintf "%s %08lx %d\n" magic (crc32 payload) (String.length payload)

let file_size_of payload = String.length (header payload) + String.length payload

(* Read and check one plan file.  [Error `Missing] when the file is
   gone (another process evicted it); [Error `Corrupt] on any header,
   length or CRC violation — the caller deletes those. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> Error `Missing
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error `Corrupt
        | line -> (
          match String.split_on_char ' ' line with
          | [ m; crc_hex; len_s ] when String.equal m magic -> (
            match (int_of_string_opt ("0x" ^ crc_hex), int_of_string_opt len_s)
            with
            | Some crc, Some len
              when len >= 0
                   && in_channel_length ic = String.length line + 1 + len -> (
              let payload = really_input_string ic len in
              match payload with
              | exception End_of_file -> Error `Corrupt
              | payload ->
                if Int32.to_int (crc32 payload) land 0xFFFFFFFF
                   = crc land 0xFFFFFFFF
                then Ok payload
                else Error `Corrupt)
            | _ -> Error `Corrupt)
          | _ -> Error `Corrupt))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if String.length parent < String.length d then mkdir_p parent;
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let insert (t : t) digest size =
  let n = { key = digest; size; prev = None; next = None } in
  Hashtbl.replace t.table digest n;
  push_front t n;
  t.bytes <- t.bytes + size;
  n

(* Shed least-recently-used files until under budget.  The newest entry
   survives even when it alone busts the budget — a store that refused
   every oversized plan would never warm anything. *)
let evict_over_budget (t : t) =
  let rec go () =
    if t.bytes > t.max_bytes && Hashtbl.length t.table > 1 then
      match t.tail with
      | Some lru ->
        drop t lru;
        unlink_quiet (path_of t lru.key);
        t.evictions <- t.evictions + 1;
        go ()
      | None -> ()
  in
  go ()

let open_ ~dir ?(max_bytes = 256 * 1024 * 1024) () =
  mkdir_p dir;
  let t =
    {
      dir;
      max_bytes = max 1 max_bytes;
      table = Hashtbl.create 256;
      head = None;
      tail = None;
      bytes = 0;
      hits = 0;
      misses = 0;
      writes = 0;
      evictions = 0;
      corrupt = 0;
      tmp_seq = 0;
      lock = Mutex.create ();
    }
  in
  (* Rebuild the index: every *.plan file, oldest mtime first, so the
     most recently touched plans sit at the LRU head exactly as they
     would have had the process never restarted. *)
  let entries =
    Array.to_list (try Sys.readdir dir with Sys_error _ -> [||])
    |> List.filter_map (fun name ->
           if Filename.check_suffix name suffix then
             let digest = Filename.chop_suffix name suffix in
             if safe_digest digest then
               match Unix.stat (Filename.concat dir name) with
               | { Unix.st_size; st_mtime; _ } ->
                 Some (digest, st_size, st_mtime)
               | exception Unix.Unix_error _ -> None
             else None
           else None)
  in
  List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b) entries
  |> List.iter (fun (digest, size, _) -> ignore (insert t digest size));
  evict_over_budget t;
  t

let locked (t : t) f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

let find (t : t) digest =
  if not (safe_digest digest) then None
  else
    locked t @@ fun () ->
    let path = path_of t digest in
    let known = Hashtbl.find_opt t.table digest in
    match read_file path with
    | Ok payload ->
      (match known with
      | Some n ->
        unlink_node t n;
        push_front t n
      | None ->
        (* Written by another shard process sharing this directory —
           adopt it and keep the byte budget honest. *)
        ignore (insert t digest (file_size_of payload));
        evict_over_budget t);
      (* Touch the file so a future index rebuild sees today's recency. *)
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      t.hits <- t.hits + 1;
      Some payload
    | Error kind ->
      (match known with Some n -> drop t n | None -> ());
      if kind = `Corrupt then begin
        unlink_quiet path;
        t.corrupt <- t.corrupt + 1
      end;
      t.misses <- t.misses + 1;
      None

let add (t : t) digest payload =
  if safe_digest digest then
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table digest with
    | Some n ->
      (* Content-addressed: same digest, same bytes — just promote. *)
      unlink_node t n;
      push_front t n
    | None ->
      let tmp =
        t.tmp_seq <- t.tmp_seq + 1;
        Filename.concat t.dir
          (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) t.tmp_seq)
      in
      let ok =
        match open_out_bin tmp with
        | exception Sys_error _ -> false
        | oc -> (
          match
            output_string oc (header payload);
            output_string oc payload;
            close_out oc
          with
          | () -> (
            match Sys.rename tmp (path_of t digest) with
            | () -> true
            | exception Sys_error _ ->
              unlink_quiet tmp;
              false)
          | exception Sys_error _ ->
            close_out_noerr oc;
            unlink_quiet tmp;
            false)
      in
      if ok then begin
        ignore (insert t digest (file_size_of payload));
        t.writes <- t.writes + 1;
        evict_over_budget t
      end

let stats (t : t) : stats =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    writes = t.writes;
    evictions = t.evictions;
    corrupt = t.corrupt;
    entries = Hashtbl.length t.table;
    bytes = t.bytes;
    max_bytes = t.max_bytes;
  }
