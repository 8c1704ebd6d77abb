type t = { fd : Unix.file_descr; rd : Wire.Buffered.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; rd = Wire.Buffered.create fd }

let read_reply t =
  match Wire.Buffered.read_frame t.rd with
  | Some frame -> Protocol.reply_of_string frame
  | None -> Error "server closed the connection"
  | exception Wire.Protocol_error m -> Error m
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let request t req =
  match Wire.write_json t.fd (Protocol.request_to_json req) with
  | () -> read_reply t
  | exception Wire.Protocol_error m -> Error m
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Cap on written-but-unanswered request bytes.  Writing an unbounded
   batch before reading anything can deadlock: the server flushes
   replies mid-batch once they pass its own buffer bound, so with both
   sides' socket buffers full, server and client block in write()
   against each other.  Staying safely below a socket buffer's worth
   of unread requests means the server can always finish a flush. *)
let chunk_bytes = 64 * 1024

(* Pipelining: requests leave in batched writes, and the replies are
   read back in order — the server answers a connection's requests
   strictly in sequence, so position k is request k's reply.  Once
   [chunk_bytes] of requests are in flight the chunk is flushed and
   its replies drained before the next chunk is written, which bounds
   the unread bytes on the wire (see above) while leaving ordinary
   batches in a single write. *)
let request_many t reqs =
  let n = List.length reqs in
  let wr = Wire.Batch.create t.fd in
  let replies = ref [] in  (* newest first *)
  let got = ref 0 in
  let pending = ref 0 in
  let drain () =
    Wire.Batch.flush wr;
    for _ = 1 to !pending do
      replies := read_reply t :: !replies;
      incr got
    done;
    pending := 0
  in
  (* [read_reply] never raises; only the write side can. *)
  (try
     List.iter
       (fun req ->
         Wire.Batch.add_json wr (Protocol.request_to_json req);
         incr pending;
         if Wire.Batch.pending wr >= chunk_bytes then drain ())
       reqs;
     drain ()
   with
  | Wire.Protocol_error m ->
    for _ = !got + 1 to n do replies := Error m :: !replies done
  | Unix.Unix_error (e, _, _) ->
    let m = Unix.error_message e in
    for _ = !got + 1 to n do replies := Error m :: !replies done);
  List.rev !replies

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_client path f =
  let t = connect path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
