(** A blocking client for the planning daemon: one Unix-socket
    connection, synchronous request/reply, with optional pipelining. *)

type t

(** [connect path] dials the daemon's socket.
    @raise Unix.Unix_error when nothing is listening. *)
val connect : string -> t

(** [request t req] sends one request and reads its reply.  Transport
    and protocol failures come back as [Error] — a client never
    raises mid-conversation.  The reply frame is decoded by
    {!Protocol.reply_of_string}: a [Plan]'s outcome is the byte range
    of the frame the server wrote, never parsed into a tree, so a cache
    hit costs the client a frame read and a scan, not a JSON round
    trip. *)
val request : t -> Protocol.request -> (Protocol.reply, string) result

(** [request_many t reqs] pipelines: requests leave in batched writes
    ({!Wire.Batch}) and the replies are read back in request order.
    The batch is written in bounded chunks — each chunk's replies are
    drained before the next chunk is sent — so a batch of any size is
    safe: unbounded write-before-read could deadlock against a server
    blocked flushing replies.  The result list is positionally aligned
    with [reqs].  On a transport failure every not-yet-answered slot
    carries the error. *)
val request_many :
  t -> Protocol.request list -> (Protocol.reply, string) result list

val close : t -> unit

(** [with_client path f] connects, runs [f], always closes. *)
val with_client : string -> (t -> 'a) -> 'a
