(* Readings of the host the benchmark runs on.  On a shared virtual
   machine the hypervisor can give this machine's CPUs to someone else,
   and every timing of a measured phase moves with the share it takes;
   memory is read from the process that plans. *)

(* [(steal, total)] CPU ticks of the whole host so far, from the first
   line of /proc/stat; (0, 0) where there is none. *)
let ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v =
        List.map (fun f -> Option.value (int_of_string_opt f) ~default:0) fields
      in
      (Option.value (List.nth_opt v 7) ~default:0, List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let stolen (s0, t0) (s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* A measured phase during which the hypervisor took more than this
   share of the host's CPU time is measured once more. *)
let max_stolen = 0.05

(* [measure ~retry f] runs the measured phase [f ()].  When more than
   [max_stolen] of the host's CPU time was stolen during it and
   [retry ()] allows, it runs [f ()] once more and keeps the attempt
   with less stolen time.  Returns the kept result and the stolen share
   of each attempt, the kept one first.  The choice rests on the host
   alone, never on the program's figures. *)
let measure ~retry f =
  let once () =
    let h0 = ticks () in
    let r = f () in
    (r, stolen h0 (ticks ()))
  in
  let r1, s1 = once () in
  if s1 <= max_stolen || not (retry ()) then (r1, [ s1 ])
  else
    let r2, s2 = once () in
    if s2 < s1 then (r2, [ s2; s1 ]) else (r1, [ s1; s2 ])

let line shares =
  match shares with
  | [ s ] ->
    Printf.sprintf
      "host: the hypervisor took %.1f%% of all CPU time during the measured \
       phase"
      (100.0 *. s)
  | kept :: others ->
    Printf.sprintf
      "host: the hypervisor took %.1f%% of all CPU time during the kept \
       measured phase (%s in the one measured again)"
      (100.0 *. kept)
      (String.concat ", "
         (List.map (fun s -> Printf.sprintf "%.1f%%" (100.0 *. s)) others))
  | [] -> "host: no measured phase"

(* Peak resident set of process [pid] so far, in MiB. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> acc)
      nan
      (String.split_on_char '\n' text)
