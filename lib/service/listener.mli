(** The front end both daemons share — [pdw serve]'s {!Server} and the
    fleet's {!Router}: the Unix socket, its accept loop, one reader
    thread per connection running the batched frame loop, the [hello]
    and [shutdown] answers, and the lifecycle ([stop], [wait]).  A
    daemon supplies only what it does with a request ([dispatch]) and
    what it releases on the way down ([teardown]).

    The frame loop dispatches every frame one [read] syscall delivered
    ({!Wire.Buffered}) before any reply is resolved, so the work of a
    pipelined batch overlaps — a server's jobs on its workers, a
    router's forwards on the shards; the replies leave in frame order
    in one write ({!Wire.Batch}), flushed early past 256 KiB.  Frames
    that arrive while a batch resolves wait for the next batch.  A
    frame that is not a request gets an [Error] reply and the
    connection reads on; a framing error is answered and the connection
    dropped.  A [shutdown] is answered [Bye], ends the batch
    (no later frame is dispatched) and stops the daemon once flushed. *)

type t

(** [bind ~role path] binds and listens on the Unix socket [path],
    replacing a stale socket file (one nobody answers on), and ignores
    SIGPIPE process-wide (a client hanging up mid-reply must not kill
    the daemon).  [role] names the daemon in [hello] errors.
    @raise Unix.Unix_error [EADDRINUSE] when a live daemon answers on
    [path], or any other bind failure. *)
val bind : role:string -> string -> t

(** [serve t ~dispatch ?on_shutdown ~teardown] starts the accept thread
    and returns.  [dispatch raw req] is called for every request frame
    but [hello] and [shutdown], with the frame's bytes and its decoded
    request, in frame order; the thunk it returns yields the reply
    frame's payload and is called only after every frame buffered with
    it has been dispatched.  [on_shutdown] runs after a [shutdown]
    frame's [Bye] is flushed, before the daemon stops.  [teardown] runs
    once on the accept thread, after the listener is closed, the socket
    file removed and live connections shut down. *)
val serve :
  t ->
  dispatch:(string -> Protocol.request -> unit -> string) ->
  ?on_shutdown:(unit -> unit) ->
  teardown:(unit -> unit) ->
  unit ->
  unit

(** The answer to a [hello]: {!Protocol.Hello_reply} when the peer
    speaks {!Protocol.wire_rev}, else an [Error] naming both revisions
    — the gate that keeps a mixed-rev fleet from exchanging frames
    neither side can decode. *)
val hello : t -> version:string -> rev:int -> Protocol.reply

(** Begin stopping without waiting ([stop] also waits); idempotent. *)
val request_stop : t -> unit

val stopping : t -> bool

(** Block until teardown has finished. *)
val wait : t -> unit

val stop : t -> unit
