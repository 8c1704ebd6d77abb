let spawn_self args =
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: args))
    Unix.stdin Unix.stdout Unix.stderr

let wait_ready path ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let pong =
      match Client.connect path with
      | exception Unix.Unix_error _ -> false
      | c ->
        let r = Client.request c Protocol.Ping in
        Client.close c;
        r = Ok Protocol.Pong
    in
    if pong || Unix.gettimeofday () > deadline then pong
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let reap ?(grace_s = 10.0) pids =
  let deadline = Unix.gettimeofday () +. grace_s in
  let running pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let rec go pids =
    match List.filter running pids with
    | [] -> ()
    | still when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go still
    | still ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        still
  in
  go pids
