(* Tests for tq_runtime: fibers, probe API, workers, executors, rings. *)

open Tq_runtime

let check = Alcotest.check

(* --- Fiber --- *)

let test_fiber_runs_to_completion () =
  let f = Fiber.create (fun () -> 42) in
  (match Fiber.resume f with
  | Fiber.Done v -> check Alcotest.int "result" 42 v
  | Fiber.Yielded -> Alcotest.fail "unexpected yield");
  Alcotest.(check bool) "finished" true (Fiber.finished f)

let test_fiber_yields () =
  let log = ref [] in
  let f =
    Fiber.create (fun () ->
        log := "a" :: !log;
        Fiber.yield ();
        log := "b" :: !log;
        Fiber.yield ();
        log := "c" :: !log;
        7)
  in
  Alcotest.(check bool) "yield 1" true (Fiber.resume f = Fiber.Yielded);
  Alcotest.(check bool) "yield 2" true (Fiber.resume f = Fiber.Yielded);
  (match Fiber.resume f with
  | Fiber.Done v -> check Alcotest.int "value" 7 v
  | Fiber.Yielded -> Alcotest.fail "should finish");
  check Alcotest.(list string) "segments in order" [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "three resumes" 3 (Fiber.resumes f)

let test_fiber_interleaving () =
  let log = ref [] in
  let mk name =
    Fiber.create (fun () ->
        for i = 1 to 3 do
          log := Printf.sprintf "%s%d" name i :: !log;
          if i < 3 then Fiber.yield ()
        done)
  in
  let a = mk "a" and b = mk "b" in
  let rec round () =
    let progressed = ref false in
    List.iter
      (fun f ->
        if not (Fiber.finished f) then begin
          ignore (Fiber.resume f);
          progressed := true
        end)
      [ a; b ];
    if !progressed then round ()
  in
  round ();
  check Alcotest.(list string) "round robin interleave"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_fiber_resume_after_done_rejected () =
  let f = Fiber.create (fun () -> ()) in
  ignore (Fiber.resume f);
  Alcotest.check_raises "double resume" (Invalid_argument "Fiber.resume: fiber already finished")
    (fun () -> ignore (Fiber.resume f))

let test_fiber_exception_propagates () =
  let f = Fiber.create (fun () -> failwith "boom") in
  Alcotest.check_raises "exception" (Failure "boom") (fun () -> ignore (Fiber.resume f))

let test_yield_outside_fiber_rejected () =
  Alcotest.check_raises "outside" (Invalid_argument "Fiber.yield: called outside a fiber")
    (fun () -> Fiber.yield ())

(* --- Clock --- *)

let test_virtual_clock () =
  let c = Clock.virtual_ () in
  check Alcotest.int "starts at 0" 0 (Clock.now_ns c);
  Clock.advance c 500;
  check Alcotest.int "advanced" 500 (Clock.now_ns c);
  Alcotest.(check bool) "is virtual" true (Clock.is_virtual c)

let test_wall_clock_advances () =
  let c = Clock.wall () in
  Alcotest.check_raises "no manual advance"
    (Invalid_argument "Clock.advance: wall clocks advance themselves") (fun () ->
      Clock.advance c 1);
  let a = Clock.now_ns c in
  let b = Clock.now_ns c in
  Alcotest.(check bool) "monotone-ish" true (b >= a)

(* --- Probe API --- *)

let with_ctx ~quantum_ns f =
  let clock = Clock.virtual_ () in
  let ctx = Probe_api.create ~clock ~quantum_ns in
  Probe_api.install ctx;
  Fun.protect ~finally:Probe_api.uninstall (fun () -> f clock ctx)

let test_probe_yields_on_expiry () =
  with_ctx ~quantum_ns:1000 (fun clock ctx ->
      let yields = ref 0 in
      let f =
        Fiber.create (fun () ->
            for _ = 1 to 10 do
              Clock.advance clock 300;
              Probe_api.probe ()
            done)
      in
      Probe_api.start_quantum ctx;
      let rec drive () =
        match Fiber.resume f with
        | Fiber.Yielded ->
            incr yields;
            Probe_api.start_quantum ctx;
            drive ()
        | Fiber.Done () -> ()
      in
      drive ();
      (* 3000ns of work, quantum 1000, probes every 300: yields at 1200,
         2400 -> 2 yields (the tail never refills a full quantum). *)
      check Alcotest.int "two yields" 2 !yields;
      check Alcotest.int "ctx counted them" 2 (Probe_api.yields_taken ctx);
      check Alcotest.int "ten probes" 10 (Probe_api.probes_executed ctx))

let test_probe_noop_without_context () =
  (* Instrumented code running outside TQ must not fail. *)
  Probe_api.probe ();
  Probe_api.critical_begin ();
  Probe_api.critical_end ()

let test_critical_section_defers_yield () =
  with_ctx ~quantum_ns:100 (fun clock ctx ->
      let phase = ref [] in
      let f =
        Fiber.create (fun () ->
            Probe_api.critical_begin ();
            Clock.advance clock 1000;
            Probe_api.probe ();
            (* expired, but suppressed *)
            phase := "in-critical" :: !phase;
            Probe_api.critical_end ();
            (* deferred yield fires here *)
            phase := "after-critical" :: !phase)
      in
      Probe_api.start_quantum ctx;
      Alcotest.(check bool) "yielded at critical exit" true (Fiber.resume f = Fiber.Yielded);
      check Alcotest.(list string) "suppressed inside" [ "in-critical" ] !phase;
      Probe_api.start_quantum ctx;
      Alcotest.(check bool) "completes" true (Fiber.resume f = Fiber.Done ()))

let test_nested_critical_sections () =
  with_ctx ~quantum_ns:100 (fun clock ctx ->
      let f =
        Fiber.create (fun () ->
            Probe_api.critical_begin ();
            Probe_api.critical_begin ();
            Clock.advance clock 500;
            Probe_api.critical_end ();
            (* still nested: no yield *)
            Probe_api.probe ();
            Probe_api.critical_end ())
      in
      Probe_api.start_quantum ctx;
      Alcotest.(check bool) "yields only at outermost exit" true
        (Fiber.resume f = Fiber.Yielded))

let test_instrumented_combinators_probe () =
  with_ctx ~quantum_ns:1_000_000 (fun _clock ctx ->
      let f =
        Fiber.create (fun () ->
            Instrumented.for_range ~probe_every:10 ~lo:0 ~hi:100 (fun _ -> ()))
      in
      Probe_api.start_quantum ctx;
      (match Fiber.resume f with Fiber.Done () -> () | _ -> Alcotest.fail "no yield expected");
      check Alcotest.int "ten probes" 10 (Probe_api.probes_executed ctx))

let test_work_ns_virtual () =
  with_ctx ~quantum_ns:1_000 (fun clock ctx ->
      let f = Fiber.create (fun () -> Instrumented.work_ns 3_000) in
      Probe_api.start_quantum ctx;
      let yields = ref 0 in
      let rec drive () =
        match Fiber.resume f with
        | Fiber.Yielded ->
            incr yields;
            Probe_api.start_quantum ctx;
            drive ()
        | Fiber.Done () -> ()
      in
      drive ();
      check Alcotest.int "virtual time consumed" 3_000 (Clock.now_ns clock);
      (* Quantum boundaries at 1000, 2000 and exactly at the final 3000
         (>= comparison) before the fiber returns. *)
      check Alcotest.int "yields at quantum boundaries" 3 !yields)

(* --- Task worker --- *)

let test_worker_ps_rotation () =
  let clock = Clock.virtual_ () in
  let finished = ref [] in
  let w =
    Task_worker.create ~clock ~quantum_ns:1_000
      ~on_finish:(fun task -> finished := task.Task_worker.task_id :: !finished)
      ()
  in
  Task_worker.submit w
    { Task_worker.task_id = 1; class_idx = 0; pinned = false;
      work = (fun ~wid:_ -> Instrumented.work_ns 5_000) };
  Task_worker.submit w
    { Task_worker.task_id = 2; class_idx = 0; pinned = false;
      work = (fun ~wid:_ -> Instrumented.work_ns 1_000) };
  Task_worker.run_until_idle w;
  check Alcotest.(list int) "short task finishes first" [ 2; 1 ] (List.rev !finished);
  check Alcotest.int "all finished" 0 (Task_worker.unfinished w);
  check Alcotest.int "finished count" 2 (Task_worker.finished_count w);
  Alcotest.(check bool) "yields happened" true (Task_worker.total_yields w > 0)

let test_worker_counters () =
  let clock = Clock.virtual_ () in
  let w = Task_worker.create ~clock ~quantum_ns:1_000 ~on_finish:(fun _ -> ()) () in
  Task_worker.submit w
    { Task_worker.task_id = 1; class_idx = 0; pinned = false;
      work = (fun ~wid:_ -> Instrumented.work_ns 2_500) };
  check Alcotest.int "unfinished" 1 (Task_worker.unfinished w);
  ignore (Task_worker.run_slice w);
  Alcotest.(check bool) "accumulates quanta" true (Task_worker.current_quanta w > 0);
  Task_worker.run_until_idle w;
  check Alcotest.int "quanta released on finish" 0 (Task_worker.current_quanta w)

(* --- Executor --- *)

let test_executor_completes_all () =
  let ex = Executor.create ~workers:4 ~quantum_ns:1_000 () in
  let sum = ref 0 in
  for i = 1 to 50 do
    Executor.submit ex (fun () ->
        Instrumented.work_ns (200 * i);
        sum := !sum + i)
  done;
  Executor.run ex;
  check Alcotest.int "all tasks ran" (50 * 51 / 2) !sum;
  check Alcotest.int "completed" 50 (Executor.completed ex)

let test_executor_jsq_balances () =
  let ex = Executor.create ~workers:4 ~quantum_ns:1_000 () in
  for _ = 1 to 64 do
    Executor.submit ex (fun () -> Instrumented.work_ns 1_000)
  done;
  Executor.run ex;
  let finished = Executor.worker_finished ex in
  Array.iter
    (fun count -> Alcotest.(check bool) "balanced 16 each" true (count = 16))
    finished

let test_executor_preempts_long_tasks () =
  let ex = Executor.create ~workers:1 ~quantum_ns:500 () in
  let order = ref [] in
  Executor.submit ex (fun () ->
      Instrumented.work_ns 5_000;
      order := "long" :: !order);
  Executor.submit ex (fun () ->
      Instrumented.work_ns 500;
      order := "short" :: !order);
  Executor.run ex;
  check Alcotest.(list string) "short escapes HoL blocking" [ "short"; "long" ]
    (List.rev !order);
  Alcotest.(check bool) "yields recorded" true (Executor.total_yields ex > 0)

(* --- SPSC ring --- *)

let test_ring_fifo () =
  let r = Spsc_ring.create ~capacity:4 in
  Alcotest.(check bool) "push 1" true (Spsc_ring.try_push r 1);
  Alcotest.(check bool) "push 2" true (Spsc_ring.try_push r 2);
  check Alcotest.(option int) "pop 1" (Some 1) (Spsc_ring.try_pop r);
  check Alcotest.(option int) "pop 2" (Some 2) (Spsc_ring.try_pop r);
  check Alcotest.(option int) "empty" None (Spsc_ring.try_pop r)

let test_ring_capacity () =
  let r = Spsc_ring.create ~capacity:2 in
  Alcotest.(check bool) "1" true (Spsc_ring.try_push r 1);
  Alcotest.(check bool) "2" true (Spsc_ring.try_push r 2);
  Alcotest.(check bool) "full" false (Spsc_ring.try_push r 3);
  ignore (Spsc_ring.try_pop r);
  Alcotest.(check bool) "space again" true (Spsc_ring.try_push r 3);
  check Alcotest.int "length" 2 (Spsc_ring.length r)

let test_ring_wraparound () =
  let r = Spsc_ring.create ~capacity:3 in
  for round = 1 to 10 do
    Alcotest.(check bool) "push" true (Spsc_ring.try_push r round);
    check Alcotest.(option int) "pop" (Some round) (Spsc_ring.try_pop r)
  done

let test_ring_cross_domain () =
  let r = Spsc_ring.create ~capacity:16 in
  let n = 10_000 in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 and received = ref 0 in
        while !received < n do
          match Spsc_ring.try_pop r with
          | Some v ->
              sum := !sum + v;
              incr received
          | None -> Domain.cpu_relax ()
        done;
        !sum)
  in
  for i = 1 to n do
    while not (Spsc_ring.try_push r i) do
      Domain.cpu_relax ()
    done
  done;
  check Alcotest.int "all values transferred" (n * (n + 1) / 2) (Domain.join consumer)

(* --- Parallel executor --- *)

(* Submit a fixed batch and shut down; the pre-redesign [Parallel.run]
   convenience collapsed to exactly this create/submit/shutdown shape. *)
let run_batch ~workers ~quantum_ns jobs =
  let pool = Parallel.create ~workers ~quantum_ns () in
  Array.iter
    (fun job ->
      while not (Parallel.submit pool (fun ~wid:_ -> job ())) do
        Domain.cpu_relax ()
      done)
    jobs;
  Parallel.shutdown pool

let test_parallel_completes () =
  let counter = Atomic.make 0 in
  let jobs = Array.init 40 (fun _ -> fun () -> Atomic.incr counter) in
  let stats = run_batch ~workers:2 ~quantum_ns:1_000_000 jobs in
  check Alcotest.int "completed" 40 stats.Parallel.completed;
  check Alcotest.int "all side effects" 40 (Atomic.get counter);
  check Alcotest.int "per-worker adds up" 40
    (Array.fold_left ( + ) 0 stats.Parallel.per_worker_finished)

let test_parallel_balances () =
  let jobs = Array.init 64 (fun _ -> fun () -> ignore (Sys.opaque_identity (ref 0))) in
  let stats = run_batch ~workers:4 ~quantum_ns:1_000_000 jobs in
  Array.iter
    (fun c -> Alcotest.(check bool) "every worker got work" true (c > 0))
    stats.Parallel.per_worker_finished

let suite =
  [
    Alcotest.test_case "fiber completion" `Quick test_fiber_runs_to_completion;
    Alcotest.test_case "fiber yields" `Quick test_fiber_yields;
    Alcotest.test_case "fiber interleaving" `Quick test_fiber_interleaving;
    Alcotest.test_case "fiber double resume" `Quick test_fiber_resume_after_done_rejected;
    Alcotest.test_case "fiber exception" `Quick test_fiber_exception_propagates;
    Alcotest.test_case "yield outside fiber" `Quick test_yield_outside_fiber_rejected;
    Alcotest.test_case "virtual clock" `Quick test_virtual_clock;
    Alcotest.test_case "wall clock" `Quick test_wall_clock_advances;
    Alcotest.test_case "probe yields on expiry" `Quick test_probe_yields_on_expiry;
    Alcotest.test_case "probe noop without ctx" `Quick test_probe_noop_without_context;
    Alcotest.test_case "critical section" `Quick test_critical_section_defers_yield;
    Alcotest.test_case "nested critical" `Quick test_nested_critical_sections;
    Alcotest.test_case "instrumented combinators" `Quick test_instrumented_combinators_probe;
    Alcotest.test_case "work_ns virtual" `Quick test_work_ns_virtual;
    Alcotest.test_case "worker ps rotation" `Quick test_worker_ps_rotation;
    Alcotest.test_case "worker counters" `Quick test_worker_counters;
    Alcotest.test_case "executor completes" `Quick test_executor_completes_all;
    Alcotest.test_case "executor jsq balance" `Quick test_executor_jsq_balances;
    Alcotest.test_case "executor preempts" `Quick test_executor_preempts_long_tasks;
    Alcotest.test_case "ring fifo" `Quick test_ring_fifo;
    Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring cross domain" `Quick test_ring_cross_domain;
    Alcotest.test_case "parallel completes" `Quick test_parallel_completes;
    Alcotest.test_case "parallel balances" `Quick test_parallel_balances;
  ]

(* --- Parallel: the persistent handle API behind tq_serve --- *)

let test_parallel_handle_lifecycle () =
  let pool = Parallel.create ~workers:2 ~ring_capacity:8 () in
  check Alcotest.int "workers" 2 (Parallel.workers pool);
  let hits = Array.init 2 (fun _ -> Atomic.make 0) in
  let submitted = ref 0 in
  let backoff = Backoff.create () in
  for i = 0 to 99 do
    let w = i mod 2 in
    while not (Parallel.submit_to pool ~worker:w (fun ~wid:_ -> Atomic.incr hits.(w))) do
      Backoff.once backoff
    done;
    incr submitted
  done;
  Parallel.drain pool;
  check Alcotest.int "drained" 0 (Parallel.in_flight pool);
  let stats = Parallel.shutdown pool in
  check Alcotest.int "completed" 100 stats.Parallel.completed;
  check Alcotest.int "worker 0 ran its share" 50 (Atomic.get hits.(0));
  check Alcotest.int "worker 1 ran its share" 50 (Atomic.get hits.(1));
  check Alcotest.(array int) "per-worker accounting" [| 50; 50 |]
    stats.Parallel.per_worker_finished

let test_parallel_submit_after_shutdown () =
  let pool = Parallel.create ~workers:1 () in
  ignore (Parallel.submit pool (fun ~wid:_ -> ()));
  let s1 = Parallel.shutdown pool in
  (* idempotent: a second shutdown just reports the same stats *)
  let s2 = Parallel.shutdown pool in
  check Alcotest.int "stable stats" s1.Parallel.completed s2.Parallel.completed;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Parallel.submit_to: pool is shut down") (fun () ->
      ignore (Parallel.submit pool (fun ~wid:_ -> ())));
  Alcotest.check_raises "bad worker index rejected before spawn side effects"
    (Invalid_argument "Parallel.submit_to: pool is shut down") (fun () ->
      ignore (Parallel.submit_to pool ~worker:7 (fun ~wid:_ -> ())))

let test_parallel_pick_least_loaded () =
  let pool = Parallel.create ~workers:3 ~ring_capacity:64 () in
  (* nothing in flight: pick must name a valid worker *)
  let w = Parallel.pick pool in
  check Alcotest.bool "valid worker" true (w >= 0 && w < 3);
  Parallel.drain pool;
  ignore (Parallel.shutdown pool)

let test_parallel_shutdown_drains_backlog () =
  (* shutdown alone must already be a zero-loss drain: every accepted
     job runs even with a deep backlog of slow jobs at shutdown time *)
  let pool = Parallel.create ~workers:2 ~ring_capacity:128 () in
  let ran = Atomic.make 0 in
  let n = 200 in
  let backoff = Backoff.create () in
  for _ = 1 to n do
    while
      not
        (Parallel.submit pool (fun ~wid:_ ->
             for _ = 1 to 50 do
               Sys.opaque_identity ignore ()
             done;
             Atomic.incr ran))
    do
      Backoff.once backoff
    done
  done;
  let stats = Parallel.shutdown pool in
  check Alcotest.int "no job lost" n (Atomic.get ran);
  check Alcotest.int "stats agree" n stats.Parallel.completed

(* appended to the runtime suite *)
let pool_suite =
  [
    Alcotest.test_case "parallel handle lifecycle" `Quick test_parallel_handle_lifecycle;
    Alcotest.test_case "parallel shutdown fence" `Quick test_parallel_submit_after_shutdown;
    Alcotest.test_case "parallel pick" `Quick test_parallel_pick_least_loaded;
    Alcotest.test_case "parallel zero-loss shutdown" `Quick test_parallel_shutdown_drains_backlog;
  ]

let suite = suite @ pool_suite

(* --- Stall attribution: the gc_pause_ns hook --- *)

(* A 1ns stall threshold turns every non-zero inter-quantum gap into a
   "stall", so a single multi-quantum task (tiny quantum, a probe per
   iteration) manufactures hundreds of them without sleeping.  The gap
   sizes are scheduling noise; the *attribution* is deterministic given
   the injected GC clock: a clock that leaps every read makes every gap
   look GC-caused, a frozen clock makes none of them, and no clock at
   all leaves them unknown. *)
let stall_counts gc_pause_ns =
  let regs = [| Tq_obs.Counters.create () |] in
  let pool =
    Parallel.create ~workers:1 ~quantum_ns:100 ~stall_threshold_ns:1
      ~worker_counters:regs ?gc_pause_ns ()
  in
  let backoff = Backoff.create () in
  while
    not
      (Parallel.submit pool (fun ~wid:_ ->
           for _ = 1 to 400 do
             for _ = 1 to 200 do
               Sys.opaque_identity ignore ()
             done;
             Probe_api.probe ()
           done))
  do
    Backoff.once backoff
  done;
  ignore (Parallel.shutdown pool);
  let count name = Tq_obs.Counters.find_count regs.(0) name in
  ( count "runtime.stalls",
    count "runtime.stall_gc",
    count "runtime.stall_other",
    count "runtime.stall_unknown" )

let test_stall_attribution_gc () =
  (* the fake GC clock leaps 1ms on every read: any gap looks GC-eaten *)
  let fake = ref 0 in
  let stalls, gc, other, unknown =
    stall_counts
      (Some
         (fun () ->
           fake := !fake + 1_000_000;
           !fake))
  in
  check Alcotest.bool "some stalls detected at a 1ns threshold" true (stalls > 0);
  check Alcotest.int "every stall attributed to gc" stalls gc;
  check Alcotest.int "none attributed elsewhere" 0 (other + unknown)

let test_stall_attribution_other () =
  (* a frozen GC clock: the runtime visibly did not eat the core *)
  let stalls, gc, other, unknown = stall_counts (Some (fun () -> 0)) in
  check Alcotest.bool "some stalls detected" true (stalls > 0);
  check Alcotest.int "every stall attributed to other" stalls other;
  check Alcotest.int "none attributed to gc" 0 (gc + unknown)

let test_stall_attribution_unknown () =
  (* no hook wired: the classifier must not guess *)
  let stalls, gc, other, unknown = stall_counts None in
  check Alcotest.bool "some stalls detected" true (stalls > 0);
  check Alcotest.int "every stall unknown" stalls unknown;
  check Alcotest.int "nothing attributed" 0 (gc + other)

let stall_suite =
  [
    Alcotest.test_case "stall attribution gc" `Quick test_stall_attribution_gc;
    Alcotest.test_case "stall attribution other" `Quick test_stall_attribution_other;
    Alcotest.test_case "stall attribution unknown" `Quick test_stall_attribution_unknown;
  ]

(* --- SPMC steal deque --- *)

let drain_deque d =
  let sum = ref 0 and count = ref 0 in
  let rec go () =
    match Spmc_deque.pop d with
    | Some v ->
        sum := !sum + v;
        incr count;
        go ()
    | None -> ()
  in
  go ();
  (!sum, !count)

let test_deque_owner_fifo () =
  let d = Spmc_deque.create ~capacity:4 in
  Alcotest.(check bool) "push 1" true (Spmc_deque.push d 1);
  Alcotest.(check bool) "push 2" true (Spmc_deque.push d 2);
  check Alcotest.int "length" 2 (Spmc_deque.length d);
  check Alcotest.(option int) "pop oldest first" (Some 1) (Spmc_deque.pop d);
  check Alcotest.(option int) "then next" (Some 2) (Spmc_deque.pop d);
  check Alcotest.(option int) "empty" None (Spmc_deque.pop d);
  (* wraparound keeps order *)
  for round = 1 to 10 do
    Alcotest.(check bool) "push" true (Spmc_deque.push d round);
    check Alcotest.(option int) "pop" (Some round) (Spmc_deque.pop d)
  done

let test_deque_capacity_one () =
  let d = Spmc_deque.create ~capacity:1 in
  check Alcotest.int "capacity" 1 (Spmc_deque.capacity d);
  Alcotest.(check bool) "push" true (Spmc_deque.push d 7);
  Alcotest.(check bool) "full" false (Spmc_deque.push d 8);
  let into = Spmc_deque.create ~capacity:1 in
  check Alcotest.int "steal takes the lone item" 1 (Spmc_deque.steal_into d ~into);
  check Alcotest.(option int) "victim empty" None (Spmc_deque.pop d);
  check Alcotest.(option int) "thief has it" (Some 7) (Spmc_deque.pop into)

let test_deque_steal_half_bounds () =
  let d = Spmc_deque.create ~capacity:16 in
  for i = 1 to 10 do
    Alcotest.(check bool) "fill" true (Spmc_deque.push d i)
  done;
  let into = Spmc_deque.create ~capacity:16 in
  check Alcotest.int "no self steal" 0 (Spmc_deque.steal_into d ~into:d);
  check Alcotest.int "steals ceil(half)" 5 (Spmc_deque.steal_into d ~into);
  check Alcotest.int "victim keeps the rest" 5 (Spmc_deque.length d);
  check Alcotest.int "thief holds the batch" 5 (Spmc_deque.length into);
  let s1, c1 = drain_deque d and s2, c2 = drain_deque into in
  check Alcotest.int "no loss, no duplication" (10 * 11 / 2) (s1 + s2);
  check Alcotest.int "count conserved" 10 (c1 + c2);
  (* an almost-full destination bounds the batch by its room *)
  let d = Spmc_deque.create ~capacity:16 in
  for i = 1 to 8 do
    ignore (Spmc_deque.push d i : bool)
  done;
  let tight = Spmc_deque.create ~capacity:4 in
  for i = 100 to 102 do
    ignore (Spmc_deque.push tight i : bool)
  done;
  check Alcotest.int "bounded by room in into" 1 (Spmc_deque.steal_into d ~into:tight);
  check Alcotest.int "victim debited exactly that" 7 (Spmc_deque.length d);
  (* empty victim: nothing to take *)
  let empty = Spmc_deque.create ~capacity:8 in
  let into = Spmc_deque.create ~capacity:8 in
  check Alcotest.int "empty victim" 0 (Spmc_deque.steal_into empty ~into)

(* Linearizability-style stress on real domains: one owner pushing and
   popping, concurrent thieves stealing halves into private deques.
   Every pushed value must be popped exactly once somewhere — checked
   by conserving both the count and the sum (a lost value breaks the
   sum, a duplicated one breaks it the other way). *)
let deque_stress ~capacity ~n ~thieves =
  let src = Spmc_deque.create ~capacity in
  let stop = Atomic.make false in
  let thief_doms =
    List.init thieves (fun _ ->
        Domain.spawn (fun () ->
            let mine = Spmc_deque.create ~capacity in
            let sum = ref 0 and count = ref 0 in
            let drain () =
              let s, c = drain_deque mine in
              sum := !sum + s;
              count := !count + c
            in
            while not (Atomic.get stop) do
              ignore (Spmc_deque.steal_into src ~into:mine : int);
              drain ();
              Domain.cpu_relax ()
            done;
            (* final sweep: the owner has drained [src], but claims we
               made just before [stop] may still sit in [mine] *)
            ignore (Spmc_deque.steal_into src ~into:mine : int);
            drain ();
            (!sum, !count)))
  in
  let owner_sum = ref 0 and owner_count = ref 0 in
  let owner_pop () =
    match Spmc_deque.pop src with
    | Some v ->
        owner_sum := !owner_sum + v;
        incr owner_count
    | None -> Domain.cpu_relax ()
  in
  for i = 1 to n do
    while not (Spmc_deque.push src i) do
      owner_pop ()
    done;
    if i land 7 = 0 then owner_pop ()
  done;
  let rec drain_src () =
    match Spmc_deque.pop src with
    | Some v ->
        owner_sum := !owner_sum + v;
        incr owner_count;
        drain_src ()
    | None -> ()
  in
  drain_src ();
  Atomic.set stop true;
  let thief_results = List.map Domain.join thief_doms in
  let total_sum =
    List.fold_left (fun acc (s, _) -> acc + s) !owner_sum thief_results
  in
  let total_count =
    List.fold_left (fun acc (_, c) -> acc + c) !owner_count thief_results
  in
  total_count = n && total_sum = n * (n + 1) / 2

let deque_stress_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10
       ~name:"spmc deque conserves every value under concurrent theft"
       QCheck.(
         triple (int_range 2 64) (int_range 100 20_000) (int_range 1 3))
       (fun (capacity, n, thieves) -> deque_stress ~capacity ~n ~thieves))

let deque_suite =
  [
    Alcotest.test_case "deque owner fifo" `Quick test_deque_owner_fifo;
    Alcotest.test_case "deque capacity one" `Quick test_deque_capacity_one;
    Alcotest.test_case "deque steal half" `Quick test_deque_steal_half_bounds;
    deque_stress_prop;
  ]

(* --- Work_source steal groups are lane slices --- *)

(* Mirrors Parallel's group construction: worker [w] may only steal
   from siblings with the same [w mod lanes].  A thief facing an empty
   slice must come up dry even when other lanes are loaded — crossing
   lanes would undo the serve plane's partitioning. *)
let test_work_source_lane_slice () =
  let lanes = 2 and workers = 6 in
  let sources =
    Array.init workers (fun wid -> Work_source.create ~wid ~capacity:64)
  in
  let group_of wid =
    Array.to_list sources
    |> List.filteri (fun w _ -> w mod lanes = wid mod lanes)
    |> Array.of_list
  in
  Array.iteri (fun wid s -> Work_source.set_group s (group_of wid)) sources;
  let load wid n =
    for i = 1 to n do
      Alcotest.(check bool) "inject" true (Work_source.inject sources.(wid) i)
    done;
    ignore
      (Work_source.drain sources.(wid)
         ~is_pinned:(fun _ -> false)
         ~submit:(fun _ -> Alcotest.fail "no pinned/overflow expected")
        : int)
  in
  (* The other lane's deques are the most loaded overall; in-slice
     victim selection must ignore them. *)
  load 1 16;
  load 3 12;
  load 2 4;
  load 4 8;
  (match Work_source.try_steal sources.(0) with
  | Some (victim, moved) ->
      check Alcotest.int "most-loaded in-slice victim" 4 victim;
      check Alcotest.int "took half the victim's deque" 4 moved
  | None -> Alcotest.fail "in-slice work available, steal came up empty");
  (* Drain lane 0's remaining stealable work; with its slice empty the
     thief finds nothing, however loaded the other lane is. *)
  Array.iter
    (fun s ->
      if Work_source.wid s mod lanes = 0 then
        while Work_source.next s <> None do
          ()
        done)
    sources;
  check Alcotest.int "other lane untouched" 16
    (Work_source.stealable sources.(1));
  (match Work_source.try_steal sources.(0) with
  | None -> ()
  | Some (victim, moved) ->
      Alcotest.failf "stole %d from worker %d outside the lane slice" moved
        victim);
  (* Every victim observed over repeated rounds shares the thief's
     slice: [w mod lanes] is invariant between thief and victim. *)
  load 2 32;
  load 4 32;
  load 1 32;
  let rounds = ref 0 in
  let continue = ref true in
  while !continue do
    match Work_source.try_steal sources.(0) with
    | Some (victim, _) ->
        incr rounds;
        check Alcotest.int "victim shares the thief's slice" 0 (victim mod lanes);
        (* consume the haul so the next round re-picks a victim *)
        while Work_source.next sources.(0) <> None do
          ()
        done
    | None -> continue := false
  done;
  Alcotest.(check bool) "steals happened" true (!rounds > 0);
  check Alcotest.int "other lane still untouched" 48
    (Work_source.stealable sources.(1))

let work_source_suite =
  [
    Alcotest.test_case "work source lane slice boundary" `Quick
      test_work_source_lane_slice;
  ]

let suite = suite @ stall_suite @ deque_suite @ work_source_suite
