(* A [pdw serve] daemon in its own process, on a private socket.

   Each daemon gets a fresh run directory under [.perfbench/] in the
   working directory (the checkout), holding its socket, its log and,
   when traced, its slow-request ledger; the socket path is relative so
   it stays short whatever the checkout's absolute path.  Every daemon
   the benchmark starts is stopped and reaped, and its directory
   removed, on every exit path: normal return, exceptions, SIGINT,
   SIGTERM (see [install_cleanup]), and — through the parent-death
   signal set in the child — even a SIGKILL of the benchmark itself. *)

module Client = Pdw_service.Client
module Protocol = Pdw_service.Protocol

(* [spawn path argv log] runs [path] with stdin from /dev/null and
   stdout and stderr on [log]; see spawn_stubs.c. *)
external spawn_process : string -> string array -> Unix.file_descr -> int
  = "perfbench_spawn"

let state_dir = ".perfbench"

type t = {
  pid : int;
  dir : string;
  socket : string;
  slow_log : string option;
  mutable reaped : bool;
}

(* Every daemon not yet reaped, for the signal and exit handlers. *)
let live : t list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  try Unix.mkdir path 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Run directories are named after the benchmark's pid; one whose
   owner is gone was left by a run that was killed outright. *)
let remove_stale_dirs () =
  match Sys.readdir state_dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun e ->
        match Scanf.sscanf_opt e "run-%d-%d%!" (fun pid _ -> pid) with
        | Some pid when pid <> Unix.getpid () -> (
          match Unix.kill pid 0 with
          | () -> ()
          | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
            remove_tree (Filename.concat state_dir e)
          | exception Unix.Unix_error _ -> ())
        | _ -> ())
      entries

let counter = ref 0

let kill_and_reap t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end

let discard t =
  kill_and_reap t;
  remove_tree t.dir;
  live := List.filter (fun d -> d != t) !live

let discard_all () = List.iter discard !live

let installed = ref false

(* Stop every daemon on exit and on SIGINT/SIGTERM/SIGHUP.  Safe to
   call more than once. *)
let install_cleanup () =
  if not !installed then begin
    installed := true;
    at_exit discard_all;
    List.iter
      (fun (signal, code) ->
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun _ ->
               discard_all ();
               exit code)))
      [ (Sys.sigint, 130); (Sys.sigterm, 143); (Sys.sighup, 129) ]
  end

let log_tail t =
  match In_channel.with_open_text (Filename.concat t.dir "daemon.log")
          In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

let exited t =
  (not t.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
    t.reaped <- true;
    true
  | exception Unix.Unix_error _ -> false

(* [spawn ~pdw ~traced] starts [pdw serve] at its default settings on a
   private socket and returns once it answers [Ping].  [traced] adds
   [--slow-log] with a zero threshold, so every request's stage record
   is written out. *)
let spawn ~pdw ~traced =
  install_cleanup ();
  mkdir_p state_dir;
  remove_stale_dirs ();
  incr counter;
  let dir =
    Filename.concat state_dir
      (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !counter)
  in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let slow_log =
    if traced then Some (Filename.concat dir "slow.jsonl") else None
  in
  let args =
    [ pdw; "serve"; "--socket"; socket ]
    @
    match slow_log with
    | Some f -> [ "--slow-log"; f; "--slow-ms"; "0" ]
    | None -> []
  in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  let pid = spawn_process pdw (Array.of_list args) log in
  Unix.close log;
  let t = { pid; dir; socket; slow_log; reaped = false } in
  live := t :: !live;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec await () =
    if exited t then
      failwith
        (Printf.sprintf "pdw serve exited during start-up:\n%s" (log_tail t))
    else if Unix.gettimeofday () > deadline then
      failwith "pdw serve did not answer ping within 60 s"
    else
      match
        Client.with_client socket (fun c -> Client.request c Protocol.Ping)
      with
      | Ok Protocol.Pong -> ()
      | _ | (exception Unix.Unix_error _) ->
        Unix.sleepf 0.005;
        await ()
  in
  await ();
  t

let request t req =
  match Client.with_client t.socket (fun c -> Client.request c req) with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Ask the daemon to shut down, wait up to 10 s for it to exit, then
   kill it; either way it is reaped.  Its directory stays until
   [discard], so the slow-request ledger can still be read. *)
let stop t =
  if not t.reaped then begin
    ignore (request t Protocol.Shutdown);
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      if exited t then ()
      else if Unix.gettimeofday () > deadline then kill_and_reap t
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    in
    wait ()
  end
