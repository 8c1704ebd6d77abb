type t = {
  path : string;
  role : string;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;  (* self-pipe: [request_stop] wakes accept *)
  stop_w : Unix.file_descr;
  mutable conns : Unix.file_descr list;
  mutable stopping : bool;
  mutable stopped : bool;
  lock : Mutex.t;
  cond : Condition.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let bind ~role path =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_UNIX path in
  (try
     (try Unix.bind fd addr
      with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
        (* A stale socket file from a crashed daemon: if nobody answers
           on it, replace it; if a live daemon does, fail loudly. *)
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let live =
          match Unix.connect probe addr with
          | () -> true
          | exception Unix.Unix_error _ -> false
        in
        Unix.close probe;
        if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
        Sys.remove path;
        Unix.bind fd addr);
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let stop_r, stop_w = Unix.pipe () in
  {
    path;
    role;
    listen_fd = fd;
    stop_r;
    stop_w;
    conns = [];
    stopping = false;
    stopped = false;
    lock = Mutex.create ();
    cond = Condition.create ();
  }

let hello t ~version ~rev =
  if rev = Protocol.wire_rev then
    Protocol.Hello_reply { version = Version.version; rev = Protocol.wire_rev }
  else
    Protocol.Error
      (Printf.sprintf
         "protocol rev mismatch: peer %s speaks wire rev %d, this %s (%s) \
          speaks rev %d"
         version rev t.role Version.version Protocol.wire_rev)

let request_stop t =
  let first =
    with_lock t (fun () ->
        let first = not t.stopping in
        t.stopping <- true;
        first)
  in
  (* Wake the accept loop via the self-pipe (closing a listening socket
     does not reliably interrupt a blocked accept). *)
  if first then
    try ignore (Unix.write_substring t.stop_w "x" 0 1)
    with Unix.Unix_error _ -> ()

let stopping t = with_lock t (fun () -> t.stopping)

(* --- the frame loop -------------------------------------------------- *)

(* What a connection does after a batch: read on, stop the daemon (a
   [shutdown] was answered), or hang up (a framing error was). *)
type next = Read_on | Shutdown | Hang_up

(* Flush the reply batch before it grows past this — a client that
   streams requests without ever reading could otherwise balloon the
   buffer. *)
let max_unflushed = 256 * 1024

let answer reply =
  let s = Protocol.reply_to_string reply in
  fun () -> s

(* One connection's reader thread: take the next frame (a blocking read
   only when the buffer is empty), dispatch it and every frame already
   buffered behind it, then resolve them in order into one batched
   write.  A pipelined client costs one read and one write syscall per
   batch, and a router's forwards of the batch overlap on the shards. *)
let conn_loop t ~dispatch ~on_shutdown fd =
  let rd = Wire.Buffered.create fd and wr = Wire.Batch.create fd in
  let next_frame () =
    match Wire.Buffered.read_frame rd with
    | None -> None
    | exception Wire.Protocol_error m ->
      Some (answer (Protocol.Error m), Hang_up)
    | Some raw -> (
      match Protocol.request_of_string raw with
      | Error m -> Some (answer (Protocol.Error m), Read_on)
      | Ok (Protocol.Hello { version; rev }) ->
        Some (answer (hello t ~version ~rev), Read_on)
      | Ok Protocol.Shutdown -> Some (answer Protocol.Bye, Shutdown)
      | Ok req -> Some (dispatch raw req, Read_on))
  in
  let rec batch acc (resolve, next) =
    let acc = resolve :: acc in
    match next with
    | Read_on when Wire.Buffered.has_frame rd -> (
      match next_frame () with
      | Some frame -> batch acc frame
      | None -> (List.rev acc, Read_on))
    | _ -> (List.rev acc, next)
  in
  let rec loop () =
    match next_frame () with
    | None -> ()
    | Some frame -> (
      let resolvers, next = batch [] frame in
      List.iter
        (fun resolve ->
          Wire.Batch.add_frame wr (resolve ());
          if Wire.Batch.pending wr >= max_unflushed then Wire.Batch.flush wr)
        resolvers;
      Wire.Batch.flush wr;
      match next with
      | Read_on -> loop ()
      | Shutdown ->
        on_shutdown ();
        request_stop t
      | Hang_up -> ())
  in
  (try loop ()
   with Wire.Protocol_error _ | Unix.Unix_error _ | Sys_error _ -> ());
  with_lock t (fun () -> t.conns <- List.filter (fun c -> c <> fd) t.conns);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- accept loop and teardown ---------------------------------------- *)

let accept_loop t ~dispatch ~on_shutdown ~teardown =
  let rec loop () =
    if not (stopping t) then
      match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ when List.mem t.stop_r readable -> ()
      | _ ->
        (match Unix.accept t.listen_fd with
        | fd, _ ->
          with_lock t (fun () -> t.conns <- fd :: t.conns);
          ignore (Thread.create (conn_loop t ~dispatch ~on_shutdown) fd)
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
          ());
        loop ()
  in
  loop ();
  (* Listener first (no new work), then live connections (shutdown wakes
     their blocked reader threads), then the daemon's own resources. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.path with Sys_error _ -> ());
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    (with_lock t (fun () -> t.conns));
  teardown ();
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  with_lock t (fun () ->
      t.stopped <- true;
      Condition.broadcast t.cond)

let serve t ~dispatch ?(on_shutdown = ignore) ~teardown () =
  ignore
    (Thread.create
       (fun () -> accept_loop t ~dispatch ~on_shutdown ~teardown)
       ())

let wait t =
  with_lock t (fun () ->
      while not t.stopped do
        Condition.wait t.cond t.lock
      done)

let stop t =
  request_stop t;
  wait t
