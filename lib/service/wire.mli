(** Length-prefixed JSON framing over a file descriptor — the planning
    service's wire format.

    A frame is an ASCII decimal byte count terminated by ['\n'],
    followed by exactly that many payload bytes (UTF-8 JSON).  The
    explicit prefix makes message boundaries independent of JSON
    whitespace and lets both sides pre-size buffers; it also rejects
    oversized frames before allocating.

    The plain [read_frame]/[write_frame] pair reads one frame per call
    with byte-at-a-time headers — fine for one-shot exchanges and
    tests.  The service's hot paths use {!Buffered} (drain many frames
    per [read] syscall) and {!Batch} (flush many replies per [write]
    syscall) instead.  Framing knows nothing of the payload beyond its
    length: the server parses requests with {!Buffered.read_json}, while
    clients take reply frames raw from {!Buffered.read_frame} and decode
    them with [Protocol.reply_of_string], which cuts a plan out of the
    frame without parsing it. *)

(** Raised on malformed headers, oversized frames, or truncated
    payloads. *)
exception Protocol_error of string

(** Frames above this many payload bytes are rejected (64 MiB). *)
val max_frame : int

(** [read_frame fd] reads one frame; [None] on clean end-of-stream
    (EOF before any header byte).
    @raise Protocol_error on a malformed header or mid-frame EOF. *)
val read_frame : Unix.file_descr -> string option

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

  (** Like {!val:Wire.read_frame}, serving from the buffer first. *)
  val read_frame : t -> string option

  (** [read_frame] and [Pdw_obs.Json.parse] of the payload.
      @raise Protocol_error when the payload is not valid JSON. *)
  val read_json : t -> Pdw_obs.Json.t option

  (** [has_frame t] is [true] when the next [read_frame] cannot block:
      a complete frame (or a malformed header, which fails fast) is
      already buffered.  The server's connection loop flushes its reply
      batch exactly when this turns [false]. *)
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
