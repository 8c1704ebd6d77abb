(* A small pool of worker domains draining one shared job queue.

   Two ways in.  [map] fans a list out for the parallel port-pair flush,
   the harness and the slow tests: the caller drains the queue alongside
   [size - 1] workers, so a pool of size n keeps exactly n domains busy,
   and a pool of size 1 runs everything inline (single-core machines and
   recursive uses stay safe).  [submit] is fire-and-forget for
   long-lived asynchronous callers such as the planning service: any
   idle worker takes the job, and a new worker domain is spawned only
   when a job finds none idle, up to [size].  Every live domain costs
   real throughput even when idle (each one extends the stop-the-world
   barrier of every minor collection), so a pool that never sees
   concurrent work never pays for a second worker. *)

(* [Fanned] jobs come from [map]; [Submitted] ones from [submit], and
   only those are counted in the worker's telemetry, which describes
   the long-lived jobs of asynchronous callers, not the flush's many
   tiny ones. *)
type task = Fanned of (unit -> unit) | Submitted of (unit -> unit)

(* One worker slot.  Telemetry is written by the worker itself, under
   the pool lock: the GC word counts come from [Gc.minor_words] and
   [Gc.counters], which read the calling domain's counters only
   ([Gc.quick_stat] sums every domain's), so only the worker can read
   its own; they are sampled once per submitted job.  (On OCaml 5.1
   [Gc.counters] counts the words still in the minor heap at an eighth
   of their number, so minor words are not taken from it.) *)
type worker = {
  mutable domain : unit Domain.t option;
  mutable jobs_done : int;
  mutable minor_words : float;
  mutable major_words : float;
}

type worker_stats = {
  jobs_done : int;
  minor_words : float;
  major_words : float;
  live : bool;
}

(* Everything mutable is guarded by [mutex]. *)
type t = {
  size : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  workers : worker array;  (* slot i holds the i-th domain spawned *)
  mutable live : int;  (* domains spawned so far *)
  mutable idle : int;  (* live workers blocked waiting for a job *)
  mutable closed : bool;
}

let default_size () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* A worker records the job it just finished in the same critical
   section in which it takes the next one, so once its [jobs_done] is
   visible it is either running another job or counted idle. *)
let rec worker_loop t (w : worker) sample =
  Mutex.lock t.mutex;
  (match sample with
  | Some (minor, major) ->
    w.jobs_done <- w.jobs_done + 1;
    w.minor_words <- minor;
    w.major_words <- major
  | None -> ());
  let rec next () =
    if t.closed then None
    else
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
        t.idle <- t.idle + 1;
        Condition.wait t.nonempty t.mutex;
        t.idle <- t.idle - 1;
        next ()
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some (Fanned job) ->
    (try job () with _ -> ());
    worker_loop t w None
  | Some (Submitted job) ->
    (try job () with _ -> ());
    let _, _, major = Gc.counters () in
    worker_loop t w (Some (Gc.minor_words (), major))

(* Under [mutex]. *)
let spawn_locked t =
  let w = t.workers.(t.live) in
  w.domain <- Some (Domain.spawn (fun () -> worker_loop t w None));
  t.live <- t.live + 1

let create ?size () =
  let size = match size with Some s -> max 1 s | None -> default_size () in
  {
    size;
    queue = Queue.create ();
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    workers =
      Array.init size (fun _ ->
          { domain = None; jobs_done = 0; minor_words = 0.0; major_words = 0.0 });
    live = 0;
    idle = 0;
    closed = false;
  }

let size t = t.size

let submit t job =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  Queue.add (Submitted job) t.queue;
  (* More queued jobs than idle workers: this one would wait, so bring
     up another domain if the pool has room.  The fresh worker finds
     the job without needing the signal. *)
  if Queue.length t.queue > t.idle && t.live < t.size then spawn_locked t
  else Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let worker_stats t =
  Mutex.lock t.mutex;
  let s =
    Array.map
      (fun (w : worker) ->
        {
          jobs_done = w.jobs_done;
          minor_words = w.minor_words;
          major_words = w.major_words;
          live = w.domain <> None;
        })
      t.workers
  in
  Mutex.unlock t.mutex;
  s

(* [closed] is set under the lock [submit] and [map] spawn under, so
   no domain can be spawned past this point. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  let domains = Array.to_list (Array.map (fun w -> w.domain) t.workers) in
  Array.iter (fun w -> w.domain <- None) t.workers;
  Mutex.unlock t.mutex;
  List.iter (Option.iter Domain.join) domains

(* Results are collected positionally; exceptions propagate to the
   caller once every slot has settled (so no worker is left writing into
   a dead array). *)
let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.size = 1 -> List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let run i =
      let r = try Ok (f arr.(i)) with e -> Error e in
      results.(i) <- Some r;
      ignore (Atomic.fetch_and_add remaining (-1))
    in
    Mutex.lock t.mutex;
    (* The first fan-out brings up the [size - 1] workers; the caller
       is the last of the [size] domains. *)
    while (not t.closed) && t.live < t.size - 1 do
      spawn_locked t
    done;
    for i = 0 to n - 1 do
      Queue.add (Fanned (fun () -> run i)) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* The caller drains the queue alongside the workers, then spins
       briefly for stragglers still executing their last job. *)
    let rec drain () =
      Mutex.lock t.mutex;
      let task = Queue.take_opt t.queue in
      Mutex.unlock t.mutex;
      match task with
      | Some (Fanned job | Submitted job) ->
        (try job () with _ -> ());
        drain ()
      | None -> ()
    in
    drain ();
    while Atomic.get remaining > 0 do
      Domain.cpu_relax ()
    done;
    Array.to_list
      (Array.map
         (function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None -> assert false)
         results)

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
