(* Prometheus-style text exposition.

   Renders counter registries and latency registries in the text format
   every metrics scraper understands: `# HELP` / `# TYPE` headers,
   sanitized names, escaped label values.  Multiple registries can
   carry the same metric names under different label sets (the
   per-domain registries of the serve path render as worker="0",
   worker="1", ...) — the headers are emitted once per metric name, as
   the format requires.

   Conformance is load-bearing here, not cosmetic: [lint] re-parses an
   exposition and applies the checks a `promtool check metrics` run
   would (histograms end in a +Inf bucket and carry _sum/_count,
   counters end in _total, every sample has a declared family, bucket
   counts are cumulative) so CI can gate the real scrape output. *)

let sanitize name =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    name

(* Label values escape exactly three characters: backslash, double
   quote and newline.  OCaml's %S escapes more (e.g. high bytes to
   \xNN), which scrapers reject. *)
let escape_label v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text escapes only backslash and newline (no quoting). *)
let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_str = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
             labels)
      ^ "}"

let metric_kind = function
  | Counters.Counter _ -> "counter"
  | Counters.Gauge _ -> "gauge"
  | Counters.Dist _ -> "histogram"

let add_headers buf fq kind help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" fq (escape_help help));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fq kind)

(* Power-of-two dist as a cumulative prometheus histogram: bucket [i]
   of the dist covers [2^(i-1), 2^i), so its inclusive upper bound is
   2^i - 1. *)
let add_dist buf fq lbl d =
  let buckets = Counters.dist_buckets d in
  let top = ref (-1) in
  Array.iteri (fun i n -> if n > 0 then top := i) buckets;
  let cum = ref 0 in
  for i = 0 to !top do
    cum := !cum + buckets.(i);
    let le = (1 lsl i) - 1 in
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket%s %d\n" fq
         (labels_str (lbl @ [ ("le", string_of_int le) ]))
         !cum)
  done;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket%s %d\n" fq
       (labels_str (lbl @ [ ("le", "+Inf") ]))
       (Counters.dist_count d));
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %d\n" fq (labels_str lbl) (Counters.dist_sum d));
  Buffer.add_string buf
    (Printf.sprintf "%s_count%s %d\n" fq (labels_str lbl) (Counters.dist_count d))

let render ?(prefix = "tq") registries =
  let buf = Buffer.create 1024 in
  (* Union of metric names across registries, name -> kind (first
     registry that defines it wins; kind clashes across registries are a
     registration bug caught by Counters itself on merge). *)
  let names = Hashtbl.create 32 in
  let ordered = ref [] in
  List.iter
    (fun (_, reg) ->
      List.iter
        (fun (name, m) ->
          if not (Hashtbl.mem names name) then begin
            Hashtbl.add names name m;
            ordered := name :: !ordered
          end)
        (Counters.to_alist reg))
    registries;
  List.iter
    (fun name ->
      let kind = metric_kind (Hashtbl.find names name) in
      let fq =
        prefix ^ "_" ^ sanitize name
        ^ if kind = "counter" then "_total" else ""
      in
      add_headers buf fq kind name;
      List.iter
        (fun (lbl, reg) ->
          match Counters.find reg name with
          | None -> ()
          | Some (Counters.Counter c) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" fq (labels_str lbl) (Counters.count c))
          | Some (Counters.Gauge g) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %g\n" fq (labels_str lbl) (Counters.value g))
          | Some (Counters.Dist d) -> add_dist buf fq lbl d)
        registries)
    (List.sort compare !ordered);
  Buffer.contents buf

(* A latency registry renders as TWO families: the real histogram (log
   buckets, cumulative, +Inf-terminated — aggregatable by a scraper)
   and a pre-computed quantile summary under <fq>_quantiles for humans
   and dashboards that want p99 without a histogram_quantile() query. *)
let render_latency ?(prefix = "tq") ~name ?(labels = []) lat =
  let buf = Buffer.create 512 in
  let fq = prefix ^ "_" ^ sanitize name in
  let recorders = Latency.to_alist lat in
  let sum_count r =
    let n = Latency.count r in
    let sum = if n = 0 then 0.0 else Latency.mean r *. float_of_int n in
    (sum, n)
  in
  add_headers buf fq "histogram" (name ^ " latency histogram (ns)");
  List.iter
    (fun (rname, r) ->
      let lbl = labels @ [ ("class", rname) ] in
      let cum = ref 0 in
      Latency.iter_buckets r (fun ~lo:_ ~hi ~count ->
          cum := !cum + count;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" fq
               (labels_str (lbl @ [ ("le", string_of_int (hi - 1)) ]))
               !cum));
      let sum, n = sum_count r in
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" fq
           (labels_str (lbl @ [ ("le", "+Inf") ]))
           n);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %.0f\n" fq (labels_str lbl) sum);
      Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" fq (labels_str lbl) n))
    recorders;
  let sq = fq ^ "_quantiles" in
  add_headers buf sq "summary" (name ^ " latency quantiles (ns)");
  List.iter
    (fun (rname, r) ->
      let lbl = labels @ [ ("class", rname) ] in
      List.iter
        (fun q ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" sq
               (labels_str (lbl @ [ ("quantile", Latency.quantile_label q) ]))
               (Latency.quantile r q)))
        Latency.ladder;
      let sum, n = sum_count r in
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %.0f\n" sq (labels_str lbl) sum);
      Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" sq (labels_str lbl) n))
    recorders;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lint: promtool-check-metrics-style validation of an exposition.    *)

type sample = { s_name : string; s_labels : (string * string) list; s_value : string }

let name_re_ok name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

(* Parse `name{k="v",...} value` (a rendered line, not arbitrary
   exposition: values are unescaped verbatim, which is enough for
   linting structure). *)
let parse_sample line =
  match String.index_opt line '{' with
  | None -> (
      match String.index_opt line ' ' with
      | None -> None
      | Some sp ->
          Some
            {
              s_name = String.sub line 0 sp;
              s_labels = [];
              s_value = String.sub line (sp + 1) (String.length line - sp - 1);
            })
  | Some lb -> (
      match String.rindex_opt line '}' with
      | None -> None
      | Some rb ->
          let name = String.sub line 0 lb in
          let body = String.sub line (lb + 1) (rb - lb - 1) in
          let value =
            let rest = String.sub line (rb + 1) (String.length line - rb - 1) in
            String.trim rest
          in
          let labels =
            String.split_on_char ',' body
            |> List.filter_map (fun kv ->
                   match String.index_opt kv '=' with
                   | None -> None
                   | Some eq ->
                       let k = String.sub kv 0 eq in
                       let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
                       let v =
                         if String.length v >= 2 && v.[0] = '"' then
                           String.sub v 1 (String.length v - 2)
                         else v
                       in
                       Some (k, v))
          in
          Some { s_name = name; s_labels = labels; s_value = value })

let strip_suffix name sfx =
  let n = String.length name and s = String.length sfx in
  if n > s && String.sub name (n - s) s = sfx then Some (String.sub name 0 (n - s))
  else None

let lint text =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let helps : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* family name -> (label-key minus le) -> (le, cumulative count) list,
     newest first; plus whether _sum/_count were seen. *)
  let hist_buckets : (string * string, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let hist_sum : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let hist_count : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
  let group_key labels =
    labels
    |> List.filter (fun (k, _) -> k <> "le" && k <> "quantile")
    |> List.sort compare
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat ","
  in
  let family_of name =
    (* The family a sample belongs to, given the declared types. *)
    if Hashtbl.mem types name then Some name
    else
      [ "_bucket"; "_sum"; "_count" ]
      |> List.find_map (fun sfx ->
             match strip_suffix name sfx with
             | Some base when Hashtbl.mem types base -> Some base
             | _ -> None)
  in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.index_opt rest ' ' with
        | Some sp -> Hashtbl.replace helps (String.sub rest 0 sp) ()
        | None -> Hashtbl.replace helps rest ()
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.index_opt rest ' ' with
        | None -> problem "malformed TYPE line: %s" line
        | Some sp ->
            let name = String.sub rest 0 sp in
            let kind = String.sub rest (sp + 1) (String.length rest - sp - 1) in
            if Hashtbl.mem types name then problem "duplicate TYPE for %s" name;
            if not (name_re_ok name) then problem "invalid metric name %s" name;
            if kind = "counter" && strip_suffix name "_total" = None then
              problem "counter %s does not end in _total" name;
            if not (Hashtbl.mem helps name) then problem "no HELP line for %s" name;
            Hashtbl.replace types name kind
      end
      else if String.length line >= 1 && line.[0] = '#' then ()
      else
        match parse_sample line with
        | None -> problem "unparseable sample line: %s" line
        | Some s -> (
            match family_of s.s_name with
            | None -> problem "sample %s has no declared TYPE" s.s_name
            | Some fam -> (
                let kind = Hashtbl.find types fam in
                let key = (fam, group_key s.s_labels) in
                match kind with
                | "histogram" ->
                    if s.s_name = fam ^ "_bucket" then begin
                      let le =
                        try List.assoc "le" s.s_labels
                        with Not_found ->
                          problem "histogram bucket %s missing le label" fam;
                          ""
                      in
                      let cell =
                        match Hashtbl.find_opt hist_buckets key with
                        | Some r -> r
                        | None ->
                            let r = ref [] in
                            Hashtbl.add hist_buckets key r;
                            r
                      in
                      cell := (le, float_of_string s.s_value) :: !cell
                    end
                    else if s.s_name = fam ^ "_sum" then Hashtbl.replace hist_sum key ()
                    else if s.s_name = fam ^ "_count" then
                      Hashtbl.replace hist_count key (float_of_string s.s_value)
                    else if s.s_name = fam then
                      problem "bare sample %s for histogram family" fam
                | "summary" ->
                    if
                      s.s_name = fam
                      && not (List.mem_assoc "quantile" s.s_labels)
                    then problem "summary sample %s missing quantile label" fam
                | _ -> ())))
    lines;
  (* Per histogram series: +Inf last, cumulative counts, _sum/_count. *)
  Hashtbl.iter
    (fun ((fam, gkey) as key) cell ->
      let buckets = List.rev !cell in
      (match List.rev buckets with
      | ("+Inf", inf_cum) :: _ -> (
          match Hashtbl.find_opt hist_count key with
          | Some c when c <> inf_cum ->
              problem "histogram %s{%s}: +Inf bucket %g <> _count %g" fam gkey inf_cum
                c
          | _ -> ())
      | _ -> problem "histogram %s{%s}: last bucket is not le=\"+Inf\"" fam gkey);
      let rec cumulative prev = function
        | [] -> ()
        | (_, c) :: rest ->
            if c < prev then
              problem "histogram %s{%s}: bucket counts not cumulative" fam gkey
            else cumulative c rest
      in
      cumulative 0.0 buckets;
      if not (Hashtbl.mem hist_sum key) then
        problem "histogram %s{%s}: missing _sum" fam gkey;
      if not (Hashtbl.mem hist_count key) then
        problem "histogram %s{%s}: missing _count" fam gkey)
    hist_buckets;
  List.rev !problems
