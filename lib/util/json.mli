(** Minimal JSON reader/writer for the BENCH_*.json reports.

    The bench and [tq_sim] reports are built as {!t} values and printed
    with {!to_string_indented}; [tq_bench_diff] reads them back to
    compare a fresh run against the committed baseline.  Numbers parse as floats — the precision the
    diff tolerances work at. *)

(** A parsed JSON value.  Object member order is preserved. *)
type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [of_string s] parses one complete JSON value (trailing whitespace
    allowed, trailing garbage is an error). *)
val of_string : string -> (t, string) result

(** [of_file path] reads and parses [path]. *)
val of_file : string -> (t, string) result

(** [to_string v] renders [v] on one line (stable member order).
    Numbers print with as many digits as they need to read back
    exactly; nan and infinities print as [null]. *)
val to_string : t -> string

(** [to_string_indented v] — [v] over several lines: the outermost
    object or list, and any below it that holds an object or list, put
    one member per line, indented two spaces a level; one holding only
    scalars stays on one line (a report row, a mix). *)
val to_string_indented : t -> string

(** [member name v] — the named member of an object, [None] for missing
    members and non-objects. *)
val member : string -> t -> t option

(** [number_opt v] — the float behind a [Number]. *)
val number_opt : t -> float option

(** [string_opt v] — the string behind a [String]. *)
val string_opt : t -> string option

(** [leaves v] — every scalar leaf of [v] with its dotted path
    ("latency.all.p99_us", list indices as segments: "points.2.rps"),
    in document order. *)
val leaves : t -> (string * t) list
