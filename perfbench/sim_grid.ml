(* A fixed DES grid: every system of [systems] at every load of
   [loads], one domain, one seed, a fixed virtual duration.  The grid's
   digest covers every cell's counts and per-class mean sojourns, so
   two runs of the same seed must agree exactly and a change to the
   simulator's results shows as a digest change. *)

module E = Tq_sched.Experiment
module M = Tq_workload.Metrics

type cell = { system : string; load : float; result : E.result; wall_s : float }

let systems (dist : Tq_workload.Service_dist.t) =
  [
    ("tq", Tq_sched.Presets.tq ());
    ( "shinjuku",
      Tq_sched.Presets.shinjuku ~quantum_ns:(Tq_sched.Presets.shinjuku_quantum_for dist.name) () );
    ("caladan", Tq_sched.Presets.caladan ~mode:Tq_sched.Caladan.Directpath ());
  ]

(* the scheduler layer each preset exercises *)
let layer_of = function
  | "tq" -> "two_level"
  | "shinjuku" -> "centralized"
  | _ -> "caladan"

(* loads are shares of TQ's 16-core capacity on [dist] *)
let run ~seed ~dist ~loads ~duration_ns =
  let capacity = Tq_workload.Arrivals.capacity_rps ~cores:16 dist in
  List.concat_map
    (fun (system, spec) ->
      List.map
        (fun load ->
          let w0 = Unix.gettimeofday () in
          let result =
            E.run ~seed:(Int64.of_int seed) ~system:spec ~workload:dist
              ~rate_rps:(load *. capacity) ~duration_ns ()
          in
          { system; load; result; wall_s = Unix.gettimeofday () -. w0 })
        loads)
    (systems dist)

let digest cells =
  let b = Buffer.create 1024 in
  List.iter
    (fun c ->
      let m = c.result.metrics in
      Buffer.add_string b
        (Printf.sprintf "%s %g %d %d %d" c.system c.load c.result.offered c.result.events
           (M.total_completed m));
      for k = 0 to M.class_count m - 1 do
        Buffer.add_string b
          (Printf.sprintf " %d %.3f" (M.completed m ~class_idx:k) (M.mean_sojourn m ~class_idx:k))
      done;
      Buffer.add_char b '\n')
    cells;
  Digest.to_hex (Digest.string (Buffer.contents b))
