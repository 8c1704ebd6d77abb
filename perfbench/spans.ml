(* The benchmark's own spans: one per public call it makes into a
   layer, kept in memory and written out as JSONL when the run ends.
   Times are [Unix.gettimeofday] seconds, the clock [Pdw_obs.Trace]
   stamps its spans with, so the two can be laid side by side. *)

type span = {
  id : int;
  name : string;
  rid : int;  (* the operation (plan or request) the span belongs to *)
  parent : int;  (* the enclosing span's id, or -1 *)
  start : float;
  mutable stop : float;
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

let open_ t ~rid ?(parent = -1) name =
  Mutex.lock t.lock;
  let s =
    { id = t.next; name; rid; parent; start = Unix.gettimeofday (); stop = nan }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock;
  s

let close s = s.stop <- Unix.gettimeofday ()

let record t ~rid ?parent name f =
  let s = open_ t ~rid ?parent name in
  Fun.protect ~finally:(fun () -> close s) (fun () -> f s)

let ms s = (s.stop -. s.start) *. 1000.0

let all t = List.rev t.spans

(* Total milliseconds and count of the closed spans named [name]. *)
let total t name =
  List.fold_left
    (fun (sum, n) s ->
      if String.equal s.name name && not (Float.is_nan s.stop) then
        (sum +. ms s, n + 1)
      else (sum, n))
    (0.0, 0) t.spans

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.name s.rid s.parent s.start s.stop)
        (all t))
