(* Shared provenance header for every emitted BENCH_*.json.

   tq_bench_diff refuses to compare reports whose schema_version
   differs from its own, so the version must bump whenever a report's
   field meanings change incompatibly.  generated_at records when the
   numbers were measured (ISO-8601 UTC) and is ignored by the diff. *)

let schema_version = 2

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let generated_at () = iso8601 (Unix.gettimeofday ())

let parse_iso8601 s =
  match
    Scanf.sscanf_opt s "%4d-%2d-%2dT%2d:%2d:%2dZ%!" (fun y m d hh mm ss ->
        (y, m, d, hh, mm, ss))
  with
  | None -> None
  | Some (y, m, d, hh, mm, ss) ->
      if m < 1 || m > 12 || d < 1 || d > 31 || hh > 23 || mm > 59 || ss > 60
      then None
      else begin
        (* days-from-civil: proleptic Gregorian date to days since the
           Unix epoch, pure integer math (no timegm portability trap).
           March-based year so the leap day lands last. *)
        let y = if m <= 2 then y - 1 else y in
        let era = (if y >= 0 then y else y - 399) / 400 in
        let yoe = y - (era * 400) in
        let mp = (m + 9) mod 12 in
        let doy = ((153 * mp) + 2) / 5 + d - 1 in
        let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
        let days = (era * 146097) + doe - 719468 in
        Some
          ((float_of_int days *. 86400.)
          +. float_of_int ((hh * 3600) + (mm * 60) + ss))
      end

let humanize_duration secs =
  let s = Float.abs secs in
  if s < 1.0 then Printf.sprintf "%.0fms" (s *. 1e3)
  else if s < 60. then Printf.sprintf "%.0fs" s
  else
    let m = int_of_float (s /. 60.) in
    if m < 60 then Printf.sprintf "%dm %02ds" m (int_of_float s mod 60)
    else
      let h = m / 60 in
      if h < 24 then Printf.sprintf "%dh %02dm" h (m mod 60)
      else Printf.sprintf "%dd %dh" (h / 24) (h mod 24)

let json_fields ?(indent = "  ") () =
  Printf.sprintf "%s\"schema_version\": %d,\n%s\"generated_at\": \"%s\",\n" indent
    schema_version indent (generated_at ())

let int n = Json.Number (float_of_int n)

(* Through the printed digits, so a report holds exactly what a %.Nf
   emitter would have written. *)
let fixed digits x =
  if Float.is_finite x then Json.Number (float_of_string (Printf.sprintf "%.*f" digits x))
  else Json.Null

let write oc fields =
  let header =
    [ ("schema_version", int schema_version); ("generated_at", Json.String (generated_at ())) ]
  in
  output_string oc (Json.to_string_indented (Json.Obj (header @ fields)));
  output_char oc '\n'
