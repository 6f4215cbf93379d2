(** Shared provenance header for every emitted BENCH_*.json report, and
    the one writer the bench and [tq_sim] reports go through.

    Each report opens with a [schema_version] (so {!Bench_diff} can
    refuse mismatched layouts) and a [generated_at] ISO-8601 UTC
    timestamp (ignored by the diff). *)

(** The report layout generation every emitter stamps.  Bump on any
    incompatible change to a report's field meanings. *)
val schema_version : int

(** [iso8601 t] — Unix time [t] as "YYYY-MM-DDTHH:MM:SSZ" (UTC). *)
val iso8601 : float -> string

(** [generated_at ()] — the current wall-clock time as ISO-8601 UTC. *)
val generated_at : unit -> string

(** [parse_iso8601 s] — the inverse of {!iso8601}: Unix seconds from
    "YYYY-MM-DDTHH:MM:SSZ" (proleptic Gregorian, pure integer date
    math — no [timegm] portability trap).  [None] on anything that is
    not exactly that shape. *)
val parse_iso8601 : string -> float option

(** [humanize_duration secs] — a duration (sign ignored) at two-unit
    precision: ["850ms"], ["42s"], ["5m 07s"], ["3h 20m"], ["12d 4h"].
    How {!Bench_diff} renders the age gap between two reports'
    [generated_at] stamps. *)
val humanize_duration : float -> string

(** [json_fields ?indent ()] — the two header lines
    ["schema_version": N,] and ["generated_at": "...",] each prefixed
    with [indent] (default two spaces) and newline-terminated, ready to
    splice right after an emitter's opening brace. *)
val json_fields : ?indent:string -> unit -> string

(** [int n] — [n] as a JSON number. *)
val int : int -> Json.t

(** [fixed digits x] — [x] rounded to [digits] decimals, exactly as
    [Printf "%.*f"] prints it; [null] for nan and infinities. *)
val fixed : int -> float -> Json.t

(** [write oc fields] prints one report to [oc]: the
    [schema_version] / [generated_at] header, then [fields], through
    {!Json.to_string_indented}, newline-terminated. *)
val write : out_channel -> (string * Json.t) list -> unit
