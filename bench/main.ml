(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sections 2 and 5), then micro-benchmarks this
   library's own primitives with Bechamel.

     dune exec bench/main.exe -- [--jobs N] [--no-cache] [REPORT [FILE]]

   The sweep grid fans out over OCaml 5 domains (--jobs or TQ_JOBS,
   default: recommended domain count); completed points are served from
   _tq_cache/ unless --no-cache.  REPORT instead writes one JSON report
   to FILE (default: the committed baseline's name), one of [reports]:

     --parallel-bench  sweep wall time at jobs=1 vs jobs=max
     --obs-bench       span record path, on vs off
     --profile-bench   latency attribution: decomposition, disabled hooks
     --serve-bench     in-process server at lanes=1 vs lanes=2
     --steal-bench     skewed load, stealing off vs on
     --tail-bench      tail reservoir offer path, and serving with it off vs on

   The serving reports are [scenario]s, each run by [run_scenario]: an
   in-process Server (lane 0 on a helper thread) under the open-loop
   Load_gen on the main thread, stopped and joined before its counts
   are read.  Every row is checked at quiescence (client tallies against
   the server's ledger, steals against the steal switch, dossiers
   against their sojourns); a failed check exits 1 and writes nothing.
   Every report goes through Bench_meta.write.

   Simulated durations scale with TQ_BENCH_SCALE (default 1.0).
   EXPERIMENTS.md records paper-vs-measured for each experiment. *)

module J = Tq_util.Json
module Server = Tq_serve.Server
module Load_gen = Tq_serve.Load_gen
module Latency = Tq_obs.Latency
module Tail = Tq_obs.Tail

let int = Tq_util.Bench_meta.int
let fixed = Tq_util.Bench_meta.fixed
let host_cores () = Domain.recommended_domain_count ()
let hr () = print_endline (String.make 78 '=')

let banner title =
  hr ();
  print_endline title;
  hr ()

(* A row that fails its check: the report is not written. *)
exception Check_failed of string

let check_that ok fmt =
  Printf.ksprintf (fun msg -> if not ok then raise (Check_failed msg)) fmt

let run_experiments ~jobs ~use_cache () =
  banner
    (Printf.sprintf
       "Tiny Quanta reproduction — every paper table/figure (TQ_BENCH_SCALE=%.2f, jobs=%d)"
       Tq_experiments.Harness.scale jobs);
  print_newline ();
  let cache =
    if use_cache then Tq_par.Result_cache.create () else Tq_par.Result_cache.disabled ()
  in
  let stats = Tq_par.Sweep.run_and_print ~jobs ~cache Tq_experiments.Registry.all in
  Printf.printf "[%s]\n\n%!" (Tq_par.Sweep.summary stats)

(* --- Parallel sweep: jobs=1 vs jobs=max over the full grid --- *)

let run_parallel_bench () =
  let experiments = Tq_experiments.Registry.all in
  let time_run ~jobs =
    (* Cache disabled: both runs must recompute every point.  Compact
       first so the second run does not pay for the first one's heap. *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let _, stats =
      Tq_par.Sweep.run ~jobs ~cache:(Tq_par.Result_cache.disabled ()) experiments
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.eprintf "jobs=%d: %.1fs\n%!" jobs wall;
    (wall, stats)
  in
  let jobs_max = Tq_par.Domain_pool.default_jobs () in
  Printf.eprintf "parallel bench: %d grid points, jobs=1 then jobs=%d (TQ_BENCH_SCALE=%g)\n%!"
    Tq_experiments.Registry.point_count jobs_max Tq_experiments.Harness.scale;
  let wall1, stats1 = time_run ~jobs:1 in
  (* On a single-core host jobs=max *is* jobs=1; a second timed run of
     the identical configuration would only sample noise, so reuse the
     measurement and report the trivial 1.0x. *)
  let wallN, statsN = if jobs_max <= 1 then (wall1, stats1) else time_run ~jobs:jobs_max in
  let speedup = if wallN > 0.0 then wall1 /. wallN else 0.0 in
  Printf.printf "speedup %.2fx at jobs=%d\n" speedup jobs_max;
  let util busy =
    fixed 3
      (if statsN.pool.wall_ns = 0 then 0.0
       else float_of_int busy /. float_of_int statsN.pool.wall_ns)
  in
  [
    ("benchmark", J.String "parallel standard sweep (every registry point)");
    ("tq_bench_scale", J.Number Tq_experiments.Harness.scale);
    ("host_cores", int (host_cores ()));
    ("grid_points", int Tq_experiments.Registry.point_count);
    ("jobs_1_wall_s", fixed 2 wall1);
    ("jobs_max", int jobs_max);
    ("jobs_max_wall_s", fixed 2 wallN);
    ("speedup", fixed 2 speedup);
    ("steals", int statsN.pool.steals);
    ( "per_domain_utilization",
      J.List (Array.to_list (Array.map util statsN.pool.per_domain_busy_ns)) );
  ]

(* --- Serving scenarios: one runner behind the serve, steal and tail A/Bs --- *)

(* One row of a serving report: a server configuration and the load
   offered to it.  [runs] > 1 keeps the run with the median p99 — a
   single loopback run's p99 carries its scheduling luck. *)
type scenario = {
  label : string * J.t;  (** the row's own column, e.g. ("lanes", 2) *)
  lanes : int;
  steal : bool;
  spans : bool;  (** span sinks sized to hold the whole run *)
  tail : bool;  (** a k=16 tail reservoir *)
  rate_rps : float;
  mix : Load_gen.mix;
  runs : int;
}

let bench_workers = 2

let base_scenario =
  { label = ("base", J.Null); lanes = 1; steal = false; spans = false; tail = false;
    rate_rps = 150_000.0; mix = Load_gen.default_mix; runs = 1 }

type row = {
  sc : scenario;
  load : Load_gen.result;
  stats : Server.stats;
  steals : int;
  steal_items : int;
  dossiers : Tail.dossier list;
  p50_us : float; p99_us : float; p999_us : float;
}

let row_name r =
  let key, v = r.sc.label in
  key ^ "=" ^ J.to_string v

(* What must hold once the server is joined.  The client's tallies and
   the server's ledger are counted on opposite ends of the socket, so
   agreement is evidence, not an identity. *)
let check_row r =
  let name = row_name r and l = r.load and s = r.stats in
  check_that (l.outstanding = 0) "%s: %d requests never answered" name l.outstanding;
  check_that (l.sent = s.parsed) "%s: client sent %d, server parsed %d" name l.sent s.parsed;
  check_that
    (l.ok + l.errors = s.completed)
    "%s: client saw %d ok + %d errors, server completed %d" name l.ok l.errors s.completed;
  check_that (l.shed = s.shed) "%s: client saw %d shed, server shed %d" name l.shed s.shed;
  if r.sc.steal then check_that (r.steals > 0) "%s: stealing armed but no steals" name
  else check_that (r.steals = 0) "%s: stealing off but %d steals" name r.steals;
  if r.sc.tail then begin
    check_that (r.dossiers <> []) "%s: the reservoir retained no dossier" name;
    let attributed = List.filter (fun d -> d.Tail.d_attributed) r.dossiers in
    List.iter
      (fun (d : Tail.dossier) ->
        let sum = List.fold_left (fun acc (_, v) -> acc + v) 0 d.d_stages in
        check_that (sum = d.d_sojourn_ns) "%s: dossier %d stages sum to %d, sojourn %d" name
          d.d_entry.e_seq sum d.d_sojourn_ns)
      attributed;
    check_that
      (10 * List.length attributed >= 9 * List.length r.dossiers)
      "%s: only %d of %d dossiers attributed" name (List.length attributed)
      (List.length r.dossiers)
  end

let run_once sc =
  let config =
    { Server.default_config with
      port = 0; workers = bench_workers; lanes = sc.lanes; rx_depth = 2048; kv_keys = 1024;
      steal = sc.steal }
  in
  (* A sink ring that overwrote an outlier's spans would leave it
     unattributed at the end-of-run fetch. *)
  let spans =
    if sc.spans then Tq_obs.Span.create ~capacity_per_sink:(1 lsl 19) () else Tq_obs.Span.null
  in
  let tail = if sc.tail then Tail.create ~k:16 () else Tail.null in
  let srv = Server.create ~spans ~tail config in
  let th = Thread.create Server.serve srv in
  let lcfg = Load_gen.default_config ~rate_rps:sc.rate_rps ~port:(Server.port srv) in
  let load = Load_gen.run { lcfg with mix = sc.mix; server_lanes = sc.lanes } in
  let dossiers = if sc.tail then Server.outlier_dossiers srv ~limit:0 else [] in
  Server.stop srv;
  Thread.join th;
  let reg = Server.merged_counters srv in
  let q = Latency.quantile_us (Latency.recorder load.latency "all") in
  let count = Tq_obs.Counters.find_count reg in
  let r =
    { sc; load; stats = Server.stats srv; dossiers;
      steals = count "runtime.steals"; steal_items = count "runtime.steal_items";
      p50_us = q P50; p99_us = q P99; p999_us = q P999 }
  in
  check_row r;
  r

let run_scenario sc =
  let runs = List.init sc.runs (fun _ -> run_once sc) in
  let by_p99 = List.sort (fun a b -> Float.compare a.p99_us b.p99_us) runs in
  let r = List.nth by_p99 (sc.runs / 2) in
  Printf.printf
    "%s: %.0f rps, p50 %.0f us, p99 %.0f us, p99.9 %.0f us (%d ok, %d shed, %d errors, %d \
     steals)\n\
     %!"
    (row_name r) r.load.throughput_rps r.p50_us r.p99_us r.p999_us r.load.ok r.load.shed
    r.load.errors r.steals;
  r

let row_json ~drop r =
  let fields =
    [ ("throughput_rps", fixed 0 r.load.throughput_rps); ("ok", int r.load.ok);
      ("shed", int r.load.shed); ("errors", int r.load.errors);
      ("outstanding", int r.load.outstanding); ("parsed", int r.stats.parsed);
      ("dispatched", int r.stats.dispatched); ("completed", int r.stats.completed);
      ("steals", int r.steals); ("steal_items", int r.steal_items);
      ("p50_us", fixed 1 r.p50_us); ("p99_us", fixed 1 r.p99_us);
      ("p999_us", fixed 1 r.p999_us) ]
  in
  J.Obj (r.sc.label :: List.filter (fun (k, _) -> not (List.mem k drop)) fields)

(* p99 of [base] over p99 of [other]: > 1 when [other] has the lower tail. *)
let p99_ratio base other =
  fixed 3 (if other.p99_us > 0.0 then base.p99_us /. other.p99_us else 1.0)

(* An A/B report: runs [sa] then [sb]; both rows' shared setting, the
   rows, and one ratio. *)
let ab_report ~benchmark ~setting ~drop ~ratio sa sb =
  let a = run_scenario sa in
  let b = run_scenario sb in
  [
    ("benchmark", J.String benchmark);
    ("host_cores", int (host_cores ()));
    ("workers", int bench_workers);
  ]
  @ setting
  @ [ ("sweep", J.List [ row_json ~drop a; row_json ~drop b ]); (ratio, p99_ratio a b) ]

(* 150k offered rps saturates one dispatcher lane (the single-dispatcher
   baseline peaked near 120k), so the lanes=2 row shows what sharding
   the I/O plane buys.  The ratio is gated only on a multi-core host: on
   one core the lanes only add coordination. *)
let run_serve_bench () =
  let lcfg = Load_gen.default_config ~rate_rps:base_scenario.rate_rps ~port:0 in
  banner
    (Printf.sprintf "Multi-lane serve sweep (lanes in {1, 2}, %d workers, %.0f offered rps)"
       bench_workers lcfg.rate_rps);
  let lanes n = { base_scenario with label = ("lanes", int n); lanes = n } in
  ab_report ~benchmark:"multi-lane serve sweep (tq_serve loopback)"
    ~setting:
      [ ("connections", int lcfg.connections); ("offered_rps", fixed 0 lcfg.rate_rps);
        ("warmup_s", J.Number lcfg.warmup_s); ("measure_s", J.Number lcfg.measure_s) ]
    ~drop:[ "steals"; "steal_items" ] ~ratio:"p99_speedup_lanes2" (lanes 1) (lanes 2)

(* Same server, same skewed load, steal off vs on.  A few percent of
   echoes spin ~200x the common case: the shape that strands short
   requests behind whichever worker drew a heavy one, which the idle
   sibling's steal-half redistributes. *)
let steal_mix =
  { Load_gen.default_mix with
    echo = 0.92; kv = 0.03; tpcc = 0.0; echo_heavy = 0.05; echo_spin_ns = 1_000;
    echo_heavy_spin_ns = 200_000 }

let run_steal_bench () =
  let rate_rps = 40_000.0 in
  banner
    (Printf.sprintf
       "Steal A/B under a skewed offered load (%d workers, %.0f rps, 5%% heavy echoes)"
       bench_workers rate_rps);
  let steal on =
    { base_scenario with label = ("steal", J.Bool on); steal = on; rate_rps; mix = steal_mix }
  in
  let m = steal_mix in
  ab_report ~benchmark:"steal A/B under skewed load (tq_serve loopback)"
    ~setting:
      [
        ("offered_rps", fixed 0 rate_rps);
        ( "mix",
          J.Obj
            [ ("echo", J.Number m.echo); ("kv", J.Number m.kv);
              ("echo_heavy", J.Number m.echo_heavy); ("echo_spin_ns", int m.echo_spin_ns);
              ("echo_heavy_spin_ns", int m.echo_heavy_spin_ns) ] );
      ]
    ~drop:[ "outstanding" ] ~ratio:"p99_improvement_steal" (steal false) (steal true)

(* --- Bechamel micro-benchmarks of the library's own primitives --- *)

open Bechamel
open Toolkit

let test_heap =
  let heap = Tq_util.Binary_heap.create ~capacity:1024 ~dummy:0 () in
  let key = ref 0 in
  Test.make ~name:"binary_heap push+pop"
    (Staged.stage (fun () ->
         incr key;
         Tq_util.Binary_heap.push heap ~key:(!key land 1023) 1;
         ignore (Tq_util.Binary_heap.pop heap)))

let test_prng =
  let rng = Tq_util.Prng.create ~seed:1L in
  Test.make ~name:"prng bits64" (Staged.stage (fun () -> ignore (Tq_util.Prng.bits64 rng)))

let test_sim_event =
  Test.make ~name:"sim schedule+run event"
    (Staged.stage
       (let sim = Tq_engine.Sim.create () in
        fun () ->
          ignore (Tq_engine.Sim.schedule_after sim ~delay:1 ignore);
          ignore (Tq_engine.Sim.step sim)))

let test_fiber =
  Test.make ~name:"fiber create+yield+finish"
    (Staged.stage (fun () ->
         let f = Tq_runtime.Fiber.create (fun () -> Tq_runtime.Fiber.yield ()) in
         ignore (Tq_runtime.Fiber.resume f);
         ignore (Tq_runtime.Fiber.resume f)))

let test_probe =
  (* Probe check without yielding: the steady-state cost of a compiled
     probe site (paper: RDTSC + compare). *)
  let ctx =
    Tq_runtime.Probe_api.create ~clock:(Tq_runtime.Clock.virtual_ ()) ~quantum_ns:max_int
  in
  Tq_runtime.Probe_api.install ctx;
  Test.make ~name:"probe check (not expired)"
    (Staged.stage (fun () -> Tq_runtime.Probe_api.probe ()))

let test_spsc =
  let ring = Tq_runtime.Spsc_ring.create ~capacity:64 in
  Test.make ~name:"spsc_ring push+pop"
    (Staged.stage (fun () ->
         ignore (Tq_runtime.Spsc_ring.try_push ring 1);
         ignore (Tq_runtime.Spsc_ring.try_pop ring)))

let test_skiplist =
  let sl = Tq_kv.Skiplist.create () in
  for i = 0 to 9_999 do
    Tq_kv.Skiplist.insert sl (Printf.sprintf "key%08d" i) i
  done;
  let i = ref 0 in
  Test.make ~name:"skiplist find (10k keys)"
    (Staged.stage (fun () ->
         i := (!i + 7_919) mod 10_000;
         ignore (Tq_kv.Skiplist.find sl (Printf.sprintf "key%08d" !i))))

let test_cache =
  let cache = Tq_cache.Cache.create ~size_bytes:32_768 ~ways:8 () in
  let addr = ref 0 in
  Test.make ~name:"cache access (L1 geometry)"
    (Staged.stage (fun () ->
         addr := (!addr + 4_096) land 0xFFFFF;
         ignore (Tq_cache.Cache.access cache !addr)))

let test_deque =
  let dq = Tq_util.Ring_deque.create () in
  Test.make ~name:"ring_deque push_back+pop_front"
    (Staged.stage (fun () ->
         Tq_util.Ring_deque.push_back dq 1;
         ignore (Tq_util.Ring_deque.pop_front dq)))

let test_backoff =
  let config = Tq_workload.Retry.default_config in
  let retry = ref 0 in
  Test.make ~name:"retry backoff schedule"
    (Staged.stage (fun () ->
         retry := (!retry mod 63) + 1;
         ignore (Tq_workload.Retry.backoff_ns config ~retry:!retry)))

let test_serve_codec =
  (* One full wire round trip of the serving layer — encode, stream
     reassembly, decode — i.e. the per-request protocol tax tq_serve's
     dispatcher pays on top of scheduling. *)
  let b = Buffer.create 64 in
  let rb = Tq_serve.Protocol.Reassembly.create () in
  let req = Tq_serve.Protocol.Echo { spin_ns = 1_000; payload = "0123456789abcdef" } in
  Test.make ~name:"serve codec encode+reassemble+decode"
    (Staged.stage (fun () ->
         Buffer.clear b;
         Tq_serve.Protocol.encode_request b ~req_id:7 req;
         let frame = Buffer.to_bytes b in
         Tq_serve.Protocol.Reassembly.add rb frame (Bytes.length frame);
         match Tq_serve.Protocol.Reassembly.next rb with
         | Ok (Some payload) -> ignore (Tq_serve.Protocol.decode_request payload)
         | _ -> assert false))

let test_admission =
  (* The per-arrival cost of the overload gate on the dispatcher's hot
     path (the Queue_limit branch is the cheapest non-trivial one). *)
  let a = Tq_sched.Admission.create (Tq_sched.Admission.Queue_limit { max_in_system = 64 }) in
  let n = ref 0 in
  Test.make ~name:"admission admit (queue limit)"
    (Staged.stage (fun () ->
         incr n;
         ignore (Tq_sched.Admission.admit a ~in_system:(!n land 127))))

(* Trace-overhead microbenchmarks: the record path behind the
   [Trace.enabled] guard, with tracing on and off.  The disabled side is
   the one every hot path pays by default, so it must show ~0 allocated
   words per run (the event constructor sits inside the guard and is
   never evaluated). *)
let make_trace_test ~name tr =
  let lane = Tq_obs.Event.Worker 3 in
  let ts = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr ts;
         if Tq_obs.Trace.enabled tr then
           Tq_obs.Trace.record tr ~ts_ns:!ts ~lane
             (Tq_obs.Event.Quantum_end { job_id = 1; ran_ns = 2_000; finished = false })))

let test_trace_enabled =
  make_trace_test ~name:"obs trace record (enabled)" (Tq_obs.Trace.create ~capacity:4096 ())

let test_trace_disabled =
  make_trace_test ~name:"obs trace record (disabled)" Tq_obs.Trace.null

(* Prints and returns one test's ns/run and minor-words/run OLS
   estimates. *)
let print_ns_words test =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Benchmark.all cfg Instance.[ monotonic_clock; minor_allocated ] test in
  let estimate instance =
    Hashtbl.fold
      (fun _ r acc -> match Analyze.OLS.estimates r with Some [ v ] -> Some v | _ -> acc)
      (Analyze.all ols instance results) None
  in
  let ns = estimate Instance.monotonic_clock and words = estimate Instance.minor_allocated in
  let pp = function Some v -> Printf.sprintf "%10.2f" v | None -> "       n/a" in
  Printf.printf "%-34s %s ns/run  %s minor words/run\n%!"
    (Test.Elt.name (List.hd (Test.elements test))) (pp ns) (pp words);
  (ns, words)

(* Span record-path overhead: what every request on the serve path pays
   for cross-domain spans.  Without --obs the server holds [null_sink]s,
   so the disabled row is the default per-request tax — it must come out
   at ~0 ns and 0 minor words per run (one capacity branch, all-int
   arguments, the clock reads guarded off by [Span.enabled] upstream). *)
let make_span_test ~name sink =
  let ts = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr ts;
         Tq_obs.Span.record sink ~req_id:!ts ~phase:Tq_obs.Span.Dispatch ~start_ns:!ts
           ~dur_ns:10 ~arg:0))

(* A measured (ns, words) pair as its two report fields. *)
let ns_words prefix (ns, words) =
  let num = function Some v -> fixed 3 v | None -> J.Null in
  [ (prefix ^ "_ns_per_run", num ns); (prefix ^ "_minor_words_per_run", num words) ]

let run_obs_bench () =
  banner "Span record-path overhead (serve observability on vs off)";
  let live_sink =
    Tq_obs.Span.register
      (Tq_obs.Span.create ~capacity_per_sink:4096 ())
      (Tq_obs.Event.Dispatcher 0)
  in
  let enabled = print_ns_words (make_span_test ~name:"span record (enabled)" live_sink) in
  let disabled =
    print_ns_words (make_span_test ~name:"span record (disabled)" Tq_obs.Span.null_sink)
  in
  print_newline ();
  (("benchmark", J.String "cross-domain span record path (tq_serve observability)")
  :: ns_words "enabled" enabled)
  @ ns_words "disabled" disabled

(* Profiling-path overhead: how fast [Profile.of_records] decomposes a
   realistic span stream (thousands of requests per ms is enough), and
   what the two disabled hot-path hooks cost per request: the null-sink
   span record (0 minor words, one branch) and the gc-clock check at
   quantum end (a [match] on a [None] the optimizer must not fold away,
   hence [Sys.opaque_identity]). *)
let synthetic_stream n =
  let lane_d = Tq_obs.Event.Dispatcher 0 in
  let lane_w = Tq_obs.Event.Worker 0 in
  let mk req_id phase lane start_ns dur_ns =
    { Tq_obs.Span.req_id; phase; lane; start_ns; dur_ns; arg = 0 }
  in
  List.concat
    (List.init n (fun i ->
         let p0 = 100_000 * i in
         (* parse 500, dispatch 300, hop, wait 400, two quanta with a
            250ns preemption gap, reply flush 600 *)
         [
           mk i Tq_obs.Span.Parse lane_d p0 500;
           mk i Tq_obs.Span.Dispatch lane_d (p0 + 500) 300;
           mk i Tq_obs.Span.Ring_hop lane_w (p0 + 1_000) 0;
           mk i Tq_obs.Span.Quantum lane_w (p0 + 1_400) 5_000;
           mk i Tq_obs.Span.Quantum lane_w (p0 + 6_650) 3_000;
           mk i Tq_obs.Span.Reply_flush lane_d (p0 + 9_650) 600;
         ]))

let run_profile_bench () =
  banner "Latency-attribution overhead (decomposition + disabled hot paths)";
  let n = 10_000 in
  let stream = synthetic_stream n in
  let decompose_test =
    Test.make ~name:(Printf.sprintf "profile decompose (%d reqs)" n)
      (Staged.stage (fun () -> ignore (Tq_obs.Profile.of_records stream)))
  in
  let decompose_ns, _ = print_ns_words decompose_test in
  let span_disabled =
    print_ns_words (make_span_test ~name:"span record (disabled)" Tq_obs.Span.null_sink)
  in
  let gc_check_test =
    let gc_pause_ns : (unit -> int) option = Sys.opaque_identity None in
    let acc = ref 0 in
    Test.make ~name:"gc clock check (disabled)"
      (Staged.stage (fun () ->
           match gc_pause_ns with None -> incr acc | Some f -> acc := f ()))
  in
  let gc_check = print_ns_words gc_check_test in
  (* Correctness ride-along: the synthetic stream must decompose
     exactly, or the timing above measured the degraded path. *)
  let p = Tq_obs.Profile.of_records stream in
  check_that (Tq_obs.Profile.requests p = n) "profile: %d of %d requests decomposed"
    (Tq_obs.Profile.requests p) n;
  check_that (Tq_obs.Profile.invariant_ok p) "profile: stage sums miss the sojourn";
  print_newline ();
  [
    ("benchmark", J.String "latency attribution overhead (tq_obs profile)");
    ("decompose_requests", int n);
    ( "decompose_ns_per_request",
      match decompose_ns with Some v -> fixed 1 (v /. float_of_int n) | None -> J.Null );
    ("decompose_exact_fraction", fixed 4 (Tq_obs.Profile.exact_fraction p));
  ]
  @ ns_words "disabled_span" span_disabled
  @ ns_words "disabled_gc_check" gc_check

(* Tail-forensics overhead.  The reservoir sits on the dispatcher's
   reply pop, the per-request hot path, so two micro numbers are gated:
   the disabled offer (a null sink: one branch, 0 minor words) and the
   enabled common case (a fast request rejected against a full
   reservoir's floor: one compare, no allocation).  Then the serving
   A/B: spans on in BOTH rows (dossier attribution rides on them), the
   reservoir off vs k=16, so the penalty is the reservoir's own.  The
   always-on claim is a p99 penalty under 5%. *)
let make_tail_test ~name sink =
  let seq = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr seq;
         (* sojourn 1 ns: far below any filled reservoir's floor, so the
            enabled sink exercises the reject path *)
         Tq_obs.Tail.offer sink ~now_ns:1 ~seq:!seq ~class_idx:0 ~worker:0
           ~sojourn_ns:1 ~t0_ns:0 ~quantum_ns:100_000 ~cap:(-1) ~inject_depth:0
           ~deque_depth:0))

let run_tail_bench () =
  banner "Tail-forensics offer-path overhead (reservoir admit gate)";
  let live = Tail.create ~k:16 () in
  let live_sink = Tail.register live ~lane:0 in
  (* Fill the reservoir with slow entries so the benched offers below
     (sojourn 1 ns) all take the common-case reject branch. *)
  for i = 1 to 16 do
    Tail.offer live_sink ~now_ns:1 ~seq:(-i) ~class_idx:0 ~worker:0 ~sojourn_ns:1_000_000
      ~t0_ns:0 ~quantum_ns:100_000 ~cap:(-1) ~inject_depth:0 ~deque_depth:0
  done;
  let reject = print_ns_words (make_tail_test ~name:"tail offer (enabled, reject)" live_sink) in
  let disabled = print_ns_words (make_tail_test ~name:"tail offer (disabled)" Tail.null_sink) in
  print_newline ();
  (* 70k rps keeps both workers busy below the saturation cliff, where
     the tail is stable enough to compare at 5%. *)
  let rate_rps = 70_000.0 in
  banner
    (Printf.sprintf
       "Tail-forensics serve A/B (%d workers, %.0f offered rps, spans on in both rows, \
        reservoir off vs k=16, median of 3)"
       bench_workers rate_rps);
  let sc on =
    { base_scenario with label = ("tail", J.Bool on); spans = true; tail = on; rate_rps; runs = 3 }
  in
  let off = run_scenario (sc false) in
  let on = run_scenario (sc true) in
  let retained = List.length on.dossiers in
  let attributed = List.length (List.filter (fun d -> d.Tail.d_attributed) on.dossiers) in
  [
    ("benchmark", J.String "tail forensics overhead (tq_serve loopback)");
    ("host_cores", int (host_cores ()));
    ("workers", int bench_workers);
    ("offered_rps", fixed 0 rate_rps);
    ("reservoir_k", int 16);
  ]
  @ ns_words "disabled_offer" disabled
  @ ns_words "reject_offer" reject
  @ [
      ("p99_off_us", fixed 1 off.p99_us);
      ("p99_on_us", fixed 1 on.p99_us);
      ("p99_penalty_frac", fixed 4 ((on.p99_us -. off.p99_us) /. off.p99_us));
      ("retained", int retained);
      ("attributed_fraction", fixed 4 (float_of_int attributed /. float_of_int retained));
    ]

let run_microbenchmarks () =
  banner "Micro-benchmarks of library primitives (OLS fit per run)";
  List.iter
    (fun t -> ignore (print_ns_words t))
    [
      test_heap; test_prng; test_sim_event; test_fiber; test_probe; test_spsc; test_skiplist;
      test_cache; test_deque; test_backoff; test_serve_codec; test_admission;
      test_trace_enabled; test_trace_disabled;
    ];
  print_newline ()

(* Every report: its flag, its default file (the committed baseline),
   its runner. *)
let reports =
  [
    ("--parallel-bench", ("BENCH_parallel.json", run_parallel_bench));
    ("--obs-bench", ("BENCH_obs_serve.json", run_obs_bench));
    ("--profile-bench", ("BENCH_profile.json", run_profile_bench));
    ("--serve-bench", ("BENCH_serve.json", run_serve_bench));
    ("--steal-bench", ("BENCH_steal.json", run_steal_bench));
    ("--tail-bench", ("BENCH_tail.json", run_tail_bench));
  ]

let () =
  let jobs = ref 0 in
  let use_cache = ref true in
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v >= 1 -> jobs := v
        | _ -> prerr_endline "bench: --jobs expects a positive integer"; exit 2);
        parse rest
    | "--no-cache" :: rest ->
        use_cache := false;
        parse rest
    | flag :: path :: rest
      when List.mem_assoc flag reports && String.length path > 0 && path.[0] <> '-' ->
        chosen := (flag, path) :: !chosen;
        parse rest
    | flag :: rest when List.mem_assoc flag reports ->
        chosen := (flag, fst (List.assoc flag reports)) :: !chosen;
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = if !jobs = 0 then Tq_par.Domain_pool.default_jobs () else !jobs in
  (* One report per invocation: the first of [reports] asked for. *)
  match List.find_opt (fun (flag, _) -> List.mem_assoc flag !chosen) reports with
  | Some (flag, (_, run)) -> (
      let out = List.assoc flag !chosen in
      match run () with
      | fields ->
          Out_channel.with_open_text out (fun oc -> Tq_util.Bench_meta.write oc fields);
          Printf.printf "wrote %s\n%!" out
      | exception Check_failed msg ->
          Printf.eprintf "bench: %s check failed, %s not written: %s\n" flag out msg;
          exit 1)
  | None ->
      run_experiments ~jobs ~use_cache:!use_cache ();
      run_microbenchmarks ();
      hr ();
      print_endline "Done. See EXPERIMENTS.md for paper-vs-measured commentary.";
      hr ()
