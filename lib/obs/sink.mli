(** A bounded, mutex-guarded append buffer shared by any domain — where
    {!Trace} keeps its finished spans and {!Events} its decision
    ledger.  It grows by doubling up to a cap of 1,000,000 items; past
    the cap an item is counted as dropped, never stored and never
    silently lost. *)

type 'a t

val create : unit -> 'a t

(** Append one item, or count it as dropped once the cap is reached. *)
val add : 'a t -> 'a -> unit

(** The items in append order. *)
val to_list : 'a t -> 'a list

val length : 'a t -> int

(** Items refused at the cap. *)
val dropped : 'a t -> int

(** Discard every item and zero the drop count. *)
val reset : 'a t -> unit
