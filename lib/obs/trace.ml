type event = {
  name : string;
  cat : string;
  ts : float;
  dur : float;
  tid : int;
  path : string list;
  args : (string * string) list;
  minor_words : float;
  major_words : float;
}

(* The single gate every probe checks: one atomic load when disabled. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let clock = Atomic.make Unix.gettimeofday
let set_clock f = Atomic.set clock f
let now () = (Atomic.get clock) ()

let epoch_ref = Atomic.make 0.0
let epoch () = Atomic.get epoch_ref

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then Atomic.set epoch_ref (now ());
  Atomic.set enabled_flag b

(* Finished events: a shared growable buffer behind a mutex.  Capped so
   a pathological run cannot exhaust memory; overflow is counted, never
   silent. *)
let cap = 1_000_000
let buf : event array ref = ref [||]
let buf_len = ref 0
let dropped_count = ref 0
let lock = Mutex.create ()

let record ev =
  Mutex.lock lock;
  if !buf_len >= cap then incr dropped_count
  else begin
    let n = Array.length !buf in
    if !buf_len >= n then begin
      let bigger = Array.make (max 256 (min cap (2 * n))) ev in
      Array.blit !buf 0 bigger 0 n;
      buf := bigger
    end;
    !buf.(!buf_len) <- ev;
    incr buf_len
  end;
  Mutex.unlock lock

let events () =
  Mutex.lock lock;
  let l = Array.to_list (Array.sub !buf 0 !buf_len) in
  Mutex.unlock lock;
  l

let num_events () =
  Mutex.lock lock;
  let n = !buf_len in
  Mutex.unlock lock;
  n

let dropped () =
  Mutex.lock lock;
  let n = !dropped_count in
  Mutex.unlock lock;
  n

let reset () =
  Mutex.lock lock;
  buf := [||];
  buf_len := 0;
  dropped_count := 0;
  Mutex.unlock lock

(* The open-span stack of the current domain (innermost first). *)
let stack_key : string list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let with_span ?(cat = "") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    Domain.DLS.set stack_key (name :: stack);
    (* Both counters are the calling domain's own ([Gc.quick_stat]
       would sum every domain's), and a span runs on one domain, so the
       deltas are this span's own allocations (children included).
       Minor words come from [Gc.minor_words]: on OCaml 5.1
       [Gc.counters] counts the words still in the minor heap at an
       eighth of their number. *)
    let minor0 = Gc.minor_words () in
    let _, _, major0 = Gc.counters () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        let minor1 = Gc.minor_words () in
        let _, _, major1 = Gc.counters () in
        Domain.DLS.set stack_key stack;
        if Atomic.get enabled_flag then
          record
            {
              name;
              cat;
              ts = t0;
              dur = t1 -. t0;
              tid = (Domain.self () :> int);
              path = List.rev (name :: stack);
              args;
              minor_words = minor1 -. minor0;
              major_words = major1 -. major0;
            })
      f
  end
