(** Daemon processes, as [pdw fleet start] and [bench fleet] run them:
    spawned from this very executable, awaited until they answer, and
    reaped with a deadline. *)

(** [spawn_self args] fork/execs this executable with [args] and
    returns the pid — never a bare fork, unsafe once the parent has
    spawned domains or threads. *)
val spawn_self : string list -> int

(** [wait_ready path ~timeout_s] polls until the daemon behind [path]
    answers a ping, [false] past the timeout.  The socket file alone
    proves nothing: a starting daemon replaces a stale one. *)
val wait_ready : string -> timeout_s:float -> bool

(** [reap ?grace_s pids] waits up to [grace_s] seconds (default 10) for
    the children to exit, then SIGKILLs and reaps the stragglers. *)
val reap : ?grace_s:float -> int list -> unit
