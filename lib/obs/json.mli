(** A minimal self-contained JSON value with a printer and a parser.

    [pdw_obs] sits below every other library, so every JSON the
    repository reads or writes goes through this one codec: the event
    ledger of [Events], the Chrome trace of [Trace_export], the
    planner's [Json_export], the bench [compare] gate that diffs two
    [BENCH_solver.json] snapshots, and every frame of the planning
    service.  Integers are kept apart from floats so sequence numbers
    and counts survive a round-trip textually unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Serialize with proper string escaping; object fields keep order.
    Integers print without a decimal point; floats print as
    [Printf %.17g] restricted to shortest round-trip, so
    [parse (to_string v)] reproduces [v]. *)
val to_string : t -> string

(** Parse one JSON document.  A numeric literal without ['.'], ['e'] or
    ['E'] that fits in an OCaml [int] parses as [Int], anything else
    numeric as [Float].  Trailing non-whitespace is an error.  The
    parser is lenient where RFC 8259 is strict: it takes raw control
    characters inside strings, and any numeric literal that
    [int_of_string] or [float_of_string] takes (["+1"], ["01"], ["1."]). *)
val parse : string -> (t, string) result

(** [scan s i] checks that one well-formed RFC 8259 value starts at
    offset [i] of [s], with no leading whitespace, and returns the
    offset just past it; [-1] when no such value starts there.  It
    builds nothing and allocates nothing.  Whatever it accepts, [parse]
    accepts too; when the byte after the value is a delimiter
    ([','], ['}'], [']'], whitespace or the end of [s]), [parse] reads
    the same value over the same bytes. *)
val scan : string -> int -> int

(** [member k j] is field [k] of object [j], if any. *)
val member : string -> t -> t option

(** Coercions; [to_float] also accepts [Int]. *)

val to_bool : t -> bool option
val to_int : t -> int option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
