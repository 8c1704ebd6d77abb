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

let clock = Atomic.make Clock.now
let set_clock f = Atomic.set clock f
let now () = (Atomic.get clock) ()

let epoch_ref = Atomic.make 0.0
let epoch () = Atomic.get epoch_ref

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then Atomic.set epoch_ref (now ());
  Atomic.set enabled_flag b

(* Finished events, shared by every domain. *)
let sink : event Sink.t = Sink.create ()
let events () = Sink.to_list sink
let num_events () = Sink.length sink
let dropped () = Sink.dropped sink
let reset () = Sink.reset sink

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
          Sink.add sink
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
