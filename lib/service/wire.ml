exception Protocol_error of string

let max_frame = 64 * 1024 * 1024

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write_frame fd payload =
  if String.length payload > max_frame then
    fail "refusing to send a %d-byte frame" (String.length payload);
  (* One write for header + payload: atomic enough for interleaving
     diagnostics, and one syscall for the common small reply. *)
  write_all fd (string_of_int (String.length payload) ^ "\n" ^ payload)

let write_json fd j = write_frame fd (Pdw_obs.Json.to_string j)

(* --- buffered reading: many frames per syscall --------------------- *)

(* The one frame reader.  A pipelining client sends several frames back
   to back; one [Unix.read] then lands them all in the buffer and
   [read_frame] hands them out without another syscall.  [has_frame]
   tells the listener's frame loop whether the next frame is already
   here — the boundary at which it stops dispatching and writes the
   batch's replies. *)
module Buffered = struct
  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;  (* next unread byte *)
    mutable len : int;  (* end of valid bytes *)
    mutable eof : bool;
  }

  let create ?(buf_size = 64 * 1024) fd =
    { fd; buf = Bytes.create (max 1024 buf_size); pos = 0; len = 0; eof = false }

  (* One blocking read into the free tail of the buffer; 0 on EOF. *)
  let refill t =
    if t.eof then 0
    else begin
      if t.pos = t.len then begin
        t.pos <- 0;
        t.len <- 0
      end
      else if t.len = Bytes.length t.buf then begin
        let n = t.len - t.pos in
        Bytes.blit t.buf t.pos t.buf 0 n;
        t.pos <- 0;
        t.len <- n
      end;
      let rec go () =
        match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
        | 0 ->
          t.eof <- true;
          0
        | n ->
          t.len <- t.len + n;
          n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()
    end

  let rec header t acc ndigits =
    if t.pos >= t.len then
      if refill t = 0 then
        if ndigits = 0 then None else fail "end of stream inside frame header"
      else header t acc ndigits
    else begin
      let c = Bytes.get t.buf t.pos in
      t.pos <- t.pos + 1;
      match c with
      | '\n' -> if ndigits = 0 then fail "empty frame header" else Some acc
      | '0' .. '9' ->
        if ndigits >= 9 then fail "frame header too long"
        else
          header t ((acc * 10) + (Char.code c - Char.code '0')) (ndigits + 1)
      | c -> fail "bad byte %C in frame header" c
    end

  (* Take [plen] payload bytes: what the buffer holds, then the
     remainder straight from the fd (the buffer is empty at that point,
     so a large frame never bounces through it twice). *)
  let payload t plen =
    if plen = 0 then ""
    else begin
      let out = Bytes.create plen in
      let take = min (t.len - t.pos) plen in
      Bytes.blit t.buf t.pos out 0 take;
      t.pos <- t.pos + take;
      let rec go off =
        if off < plen then
          match Unix.read t.fd out off (plen - off) with
          | 0 ->
            t.eof <- true;
            fail "unexpected end of stream (%d of %d bytes)" off plen
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      in
      go take;
      Bytes.unsafe_to_string out
    end

  let read_frame t =
    match header t 0 0 with
    | None -> None
    | Some plen ->
      if plen > max_frame then fail "frame of %d bytes exceeds limit" plen;
      Some (payload t plen)

  (* Whether a complete frame already sits in the buffer — i.e. the next
     [read_frame] cannot block.  Malformed bytes count as "ready": the
     next read surfaces the protocol error without blocking either. *)
  let has_frame t =
    let rec scan i acc ndigits =
      if i >= t.len then false
      else
        match Bytes.get t.buf i with
        | '\n' -> if ndigits = 0 then true else t.len - (i + 1) >= acc
        | '0' .. '9' as c ->
          if ndigits >= 9 then true
          else scan (i + 1) ((acc * 10) + (Char.code c - Char.code '0')) (ndigits + 1)
        | _ -> true
    in
    scan t.pos 0 0
end

(* --- batched writing: many frames per syscall ----------------------- *)

(* Replies accumulate in one buffer and leave in a single [write] at
   [flush] — the writev-style tail of a batch of pipelined requests. *)
module Batch = struct
  type t = { fd : Unix.file_descr; b : Buffer.t }

  let create fd = { fd; b = Buffer.create 8192 }

  let add_frame t payload =
    if String.length payload > max_frame then
      fail "refusing to send a %d-byte frame" (String.length payload);
    Buffer.add_string t.b (string_of_int (String.length payload));
    Buffer.add_char t.b '\n';
    Buffer.add_string t.b payload

  let add_json t j = add_frame t (Pdw_obs.Json.to_string j)

  let pending t = Buffer.length t.b

  let flush t =
    if Buffer.length t.b > 0 then begin
      let s = Buffer.contents t.b in
      Buffer.clear t.b;
      write_all t.fd s
    end
end
