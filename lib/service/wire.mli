(** Length-prefixed JSON framing over a file descriptor — the planning
    service's wire format.

    A frame is an ASCII decimal byte count terminated by ['\n'],
    followed by exactly that many payload bytes (UTF-8 JSON).  The
    explicit prefix makes message boundaries independent of JSON
    whitespace and lets both sides pre-size buffers; it also rejects
    oversized frames before allocating.

    Reading has one form, {!Buffered}: one [read] syscall lands as many
    frames as the sender had queued.  Writing has two: {!write_frame}
    for one frame, {!Batch} to flush many in one [write].  Framing knows
    nothing of the payload beyond its length: the daemons decode request
    frames with [Protocol.request_of_string] and clients decode reply
    frames with [Protocol.reply_of_string], which cuts a plan out of the
    frame without parsing it. *)

(** Raised on malformed headers, oversized frames, or truncated
    payloads. *)
exception Protocol_error of string

(** Frames above this many payload bytes are rejected (64 MiB). *)
val max_frame : int

(** [write_frame fd payload] writes the header and payload. *)
val write_frame : Unix.file_descr -> string -> unit

(** [write_json fd j] frames [Pdw_obs.Json.to_string j]. *)
val write_json : Unix.file_descr -> Pdw_obs.Json.t -> unit

(** Buffered frame reading: one [Unix.read] syscall lands as many
    frames as the sender had queued; [read_frame] then hands them out
    without touching the fd again.  Frames larger than the buffer read
    their tail straight from the fd — nothing is copied twice. *)
module Buffered : sig
  type t

  (** [create ?buf_size fd] wraps [fd] (default 64 KiB buffer, floor
      1 KiB).  The reader owns the stream: mixing it with unbuffered
      reads on the same fd would lose the buffered bytes. *)
  val create : ?buf_size:int -> Unix.file_descr -> t

  (** [read_frame t] reads one frame, serving from the buffer first;
      [None] on clean end-of-stream (EOF before any header byte).
      @raise Protocol_error on a malformed header, an oversized frame or
      mid-frame EOF. *)
  val read_frame : t -> string option

  (** [has_frame t] is [true] when the next [read_frame] cannot block:
      a complete frame (or a malformed header, which fails fast) is
      already buffered.  The listener's frame loop resolves and writes
      its batch of replies exactly when this turns [false]. *)
  val has_frame : t -> bool
end

(** Batched frame writing: frames accumulate in one buffer and leave in
    a single [write] on [flush] — the reply tail of a pipelined batch
    costs one syscall burst, not one per reply. *)
module Batch : sig
  type t

  val create : Unix.file_descr -> t

  (** [add_frame t payload] appends one frame to the batch.
      @raise Protocol_error past {!max_frame}. *)
  val add_frame : t -> string -> unit

  val add_json : t -> Pdw_obs.Json.t -> unit

  (** Bytes currently queued. *)
  val pending : t -> int

  (** Write everything queued; no-op when empty. *)
  val flush : t -> unit
end
