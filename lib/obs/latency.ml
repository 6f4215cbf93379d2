module Histogram = Tq_stats.Histogram

type recorder = { hist : Histogram.t; max_value : int; mutable owner : int }
type t = { table : (string, recorder) Hashtbl.t; max_value : int }

(* The single-threaded constraint used to be documentation only; with
   the owner check on, every record verifies the calling domain is the
   recorder's owner (the domain that created or last adopted it).  Off
   by default: the hot path then pays one ref load and branch. *)
let owner_check = ref false
let set_owner_check on = owner_check := on
let self () = (Domain.self () :> int)

let create ?(max_ns = 100_000_000_000) () =
  if max_ns <= 0 then invalid_arg "Latency.create: max_ns must be positive";
  { table = Hashtbl.create 16; max_value = max_ns }

let recorder t name =
  match Hashtbl.find_opt t.table name with
  | Some r -> r
  | None ->
      let r =
        {
          hist = Histogram.create ~max_value:t.max_value ();
          max_value = t.max_value;
          owner = self ();
        }
      in
      Hashtbl.add t.table name r;
      r

let adopt r = r.owner <- self ()

let record r ns =
  if !owner_check && self () <> r.owner then
    invalid_arg "Latency.record: recorder used off its owning domain";
  Histogram.record r.hist (max 0 (min ns r.max_value))

let count r = Histogram.count r.hist

type quantile = P50 | P90 | P99 | P999

let ladder = [ P50; P90; P99; P999 ]

let percent = function P50 -> 50.0 | P90 -> 90.0 | P99 -> 99.0 | P999 -> 99.9
let quantile_label = function P50 -> "0.5" | P90 -> "0.9" | P99 -> "0.99" | P999 -> "0.999"

(* The one place a quantile becomes the histogram's percent. *)
let quantile r q = if count r = 0 then 0 else Histogram.percentile r.hist (percent q)

let mean r = Histogram.mean r.hist
let max_ns r = Histogram.max_recorded r.hist
let iter_buckets r f = Histogram.iter_buckets r.hist f

(* Same rank rule as [quantile] (the ceil(q * n)-th sample, at least
   the first), but placed inside its bucket by its position among the
   bucket's samples instead of at the bucket's lower bound.  The top
   bucket is only filled up to the largest sample, so it spans
   [lo, max_ns] rather than its full width. *)
let quantile_us r q =
  let n = count r in
  if n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (percent q /. 100.0 *. float_of_int n))) in
    let below = ref 0 and found = ref None in
    iter_buckets r (fun ~lo ~hi ~count ->
        if !found = None then
          if !below + count >= rank then
            let pos = float_of_int (rank - !below) /. float_of_int count in
            let top = min (hi - 1) (max_ns r) in
            found := Some (float_of_int lo +. (pos *. float_of_int (top - lo)))
          else below := !below + count);
    Option.value !found ~default:(float_of_int (max_ns r)) /. 1e3
  end

let clear r = Histogram.clear r.hist
let clear_all t = Hashtbl.iter (fun _ r -> clear r) t.table

let to_alist t =
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Bucket-level aggregation: replaying each source bucket's lower bound
   [count] times lands in the same bucket of the destination histogram
   (identical bucket boundaries), so percentiles of the merge equal the
   percentiles of the pooled samples up to the histograms' native
   resolution.  The sources are read without locks — merge per-lane
   registries after the writers quiesced for an exact cut, or live for
   an eventually-consistent snapshot. *)
let merge ts =
  let max_value =
    List.fold_left (fun acc t -> max acc t.max_value) 1 ts
  in
  let out = create ~max_ns:max_value () in
  List.iter
    (fun t ->
      List.iter
        (fun (name, r) ->
          let dst = recorder out name in
          iter_buckets r (fun ~lo ~hi:_ ~count ->
              Histogram.record_n dst.hist (max 0 (min lo dst.max_value)) ~count))
        (to_alist t))
    ts;
  out

let us ns = float_of_int ns /. 1e3

let dump t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, r) ->
      Buffer.add_string b
        (Printf.sprintf
           "%-12s %8d samples  mean %8.2fus  p50 %8.2fus  p90 %8.2fus  p99 %8.2fus  \
            p99.9 %8.2fus\n"
           name (count r)
           (if count r = 0 then 0.0 else mean r /. 1e3)
           (us (quantile r P50))
           (us (quantile r P90))
           (us (quantile r P99))
           (us (quantile r P999))))
    (to_alist t);
  Buffer.contents b

let json_fields r =
  Printf.sprintf
    "\"count\": %d, \"mean_us\": %.3f, \"p50_us\": %.3f, \"p90_us\": %.3f, \"p99_us\": \
     %.3f, \"p999_us\": %.3f, \"max_us\": %.3f"
    (count r)
    (if count r = 0 then 0.0 else mean r /. 1e3)
    (us (quantile r P50))
    (us (quantile r P90))
    (us (quantile r P99))
    (us (quantile r P999))
    (us (max_ns r))

let to_json t =
  let entries =
    List.map
      (fun (name, r) -> Printf.sprintf "    %S: {%s}" name (json_fields r))
      (to_alist t)
  in
  "{\n" ^ String.concat ",\n" entries ^ "\n  }"
