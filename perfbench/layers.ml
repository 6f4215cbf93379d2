(* The per-layer ledger: ns/op and minor words/op of each public entry
   point a request touches, fed with the workload's own generated
   requests.  One domain; every figure is the median of several timed
   batches. *)

module P = Tq_serve.Protocol
module J = Tq_util.Json

(* [measure f] — (median ns/op, minor words/op) of [f i] over batches
   sized to take about [batch_s] each *)
let measure ?(batch_s = 0.01) ?(batches = 7) (f : int -> unit) =
  let n = ref 1 in
  let rec calibrate () =
    let t0 = Unix.gettimeofday () in
    for i = 0 to !n - 1 do
      f i
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < batch_s /. 4.0 && !n < 1 lsl 26 then begin
      n := !n * 4;
      calibrate ()
    end
    else n := max 1 (int_of_float (float_of_int !n *. batch_s /. Float.max dt 1e-6))
  in
  calibrate ();
  let n = !n in
  let per_op = Array.make batches 0.0 and words = Array.make batches 0.0 in
  for b = 0 to batches - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      f i
    done;
    let dt = Unix.gettimeofday () -. t0 in
    words.(b) <- (Gc.minor_words () -. w0) /. float_of_int n;
    per_op.(b) <- dt *. 1e9 /. float_of_int n
  done;
  Array.sort compare per_op;
  Array.sort compare words;
  (per_op.(batches / 2), words.(batches / 2))

(* the workload's requests, as the client generates them *)
let requests ~seed (mix : Client.mix) count =
  let rng = Tq_util.Prng.create ~seed:(Int64.of_int seed) in
  Array.init count (fun id ->
      let kind, key = Client.sample rng mix in
      Client.request mix ~id kind key)

let small_rpc_mix =
  { Client.echo = 0.75; heavy = 0.0; kv = 0.25; spin_ns = 1000; heavy_spin_ns = 0; set_frac = 0.3;
    keys = 1024 }

let response_of id = function
  | P.Echo { payload; _ } -> { P.req_id = id; status = P.Ok; body = payload }
  | P.Kv_get { key } -> { P.req_id = id; status = P.Ok; body = "+v" ^ key }
  | _ -> { P.req_id = id; status = P.Ok; body = "+" }

let run ~seed ~(mix : Client.mix) ~dist ~sim_loads ~sim_duration_ns =
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  let add_m name (ns, words) =
    add (name ^ "_ns") ns;
    add (name ^ "_words") words
  in
  let count = 4096 in
  let mask = count - 1 in
  let reqs = requests ~seed mix count in
  (* requests of one class, from the workload where it has them, else
     from the default small-rpc shape *)
  let of_class cls =
    let own = List.filter (fun r -> P.class_of_request r = cls) (Array.to_list reqs) in
    let pick =
      if own <> [] then own
      else
        List.filter
          (fun r -> P.class_of_request r = cls)
          (Array.to_list (requests ~seed small_rpc_mix count))
    in
    Array.of_list pick
  in
  (* short echoes only: a heavy spin is the workload, not the layer *)
  let echoes =
    Array.of_list
      (List.filter
         (function P.Echo { spin_ns; _ } -> spin_ns = mix.spin_ns | _ -> false)
         (Array.to_list (of_class 0)))
  in
  let payloads =
    Array.mapi
      (fun id r ->
        let b = Buffer.create 64 in
        P.encode_request b ~req_id:id r;
        Bytes.of_string (Buffer.sub b 4 (Buffer.length b - 4)))
      reqs
  in
  let responses = Array.mapi response_of reqs in
  (* serve.Protocol *)
  let decode = measure (fun i -> ignore (Sys.opaque_identity (P.decode_request payloads.(i land mask)))) in
  add_m "protocol.decode_request" decode;
  let frame = Bytes.create 4096 in
  let encode =
    measure (fun i -> ignore (Sys.opaque_identity (P.encode_response_into frame ~off:0 responses.(i land mask))))
  in
  add_m "protocol.encode_response_into" encode;
  add "protocol.words_per_req" (snd decode +. snd encode);
  (* serve.Pool, Protocol.Outbuf *)
  let pool = Tq_serve.Pool.create ~buf_bytes:4096 () in
  add_m "pool.take_release"
    (measure (fun i ->
         let b = Tq_serve.Pool.acquire pool ~len:(P.response_frame_len responses.(i land mask)) in
         Tq_serve.Pool.release pool b));
  let frames = Array.map P.response_frame responses in
  let ob = P.Outbuf.create () in
  add_m "outbuf.add_consume"
    (measure (fun i ->
         let f = frames.(i land mask) in
         P.Outbuf.add_bytes ob f ~off:0 ~len:(Bytes.length f);
         let _, _, len = P.Outbuf.peek ob in
         P.Outbuf.consume ob len));
  (* runtime.Spsc_ring, Work_source *)
  let ring = Tq_runtime.Spsc_ring.create ~capacity:256 in
  add_m "ring.push_pop"
    (measure (fun i ->
         ignore (Tq_runtime.Spsc_ring.try_push ring reqs.(i land mask));
         ignore (Sys.opaque_identity (Tq_runtime.Spsc_ring.try_pop ring))));
  let src = Tq_runtime.Work_source.create ~wid:0 ~capacity:256 in
  Tq_runtime.Work_source.set_group src [| src |];
  add_m "work_source.inject_next"
    (measure (fun i ->
         ignore (Tq_runtime.Work_source.inject src reqs.(i land mask));
         ignore (Tq_runtime.Work_source.drain src ~is_pinned:(fun _ -> false) ~submit:ignore);
         ignore (Sys.opaque_identity (Tq_runtime.Work_source.next src))));
  (* runtime.Fiber, Probe_api *)
  add_m "fiber.spawn_yield"
    (measure (fun _ ->
         let f = Tq_runtime.Fiber.create (fun () -> Tq_runtime.Fiber.yield ()) in
         ignore (Tq_runtime.Fiber.resume f);
         ignore (Tq_runtime.Fiber.resume f)));
  let probe =
    Tq_runtime.Probe_api.create ~clock:(Tq_runtime.Clock.wall ()) ~quantum_ns:1_000_000_000
  in
  Tq_runtime.Probe_api.install probe;
  Tq_runtime.Probe_api.start_quantum probe;
  add_m "probe.check" (measure (fun _ -> Tq_runtime.Probe_api.probe ()));
  Tq_runtime.Probe_api.uninstall ();
  (* serve.App, kv.Store *)
  let app = Tq_serve.App.create ~kv_keys:1024 ~seed:1L () in
  List.iter
    (fun (name, rs) ->
      let n = Array.length rs in
      if n > 0 then begin
        let ns, words =
          measure (fun i ->
              ignore (Sys.opaque_identity (Tq_serve.App.execute app ~now_ns:0 ~req_id:i rs.(i mod n))))
        in
        add ("app.service_ns." ^ name) ns;
        add ("app.service_words." ^ name) words
      end)
    [ ("echo", echoes); ("kv_get", of_class 1); ("kv_set", of_class 2) ];
  (* engine.Sim, workload *)
  let sim = Tq_engine.Sim.create () in
  add_m "sim.schedule_step"
    (measure (fun _ ->
         ignore (Tq_engine.Sim.schedule_after sim ~delay:1 ignore);
         ignore (Tq_engine.Sim.step sim)));
  let rng = Tq_util.Prng.create ~seed:(Int64.of_int seed) in
  add_m "workload.arrival_gen"
    (measure (fun _ ->
         ignore (Sys.opaque_identity (Tq_workload.Service_dist.sample dist rng));
         ignore (Sys.opaque_identity (Tq_util.Prng.exponential rng ~mean:1000.0))));
  (* sched.*: a small grid, wall ns per simulated event per layer *)
  let cells = Sim_grid.run ~seed ~dist ~loads:sim_loads ~duration_ns:sim_duration_ns in
  add "sim.events"
    (float_of_int (List.fold_left (fun acc (c : Sim_grid.cell) -> acc + c.result.events) 0 cells));
  List.iter
    (fun sys ->
      let cs = List.filter (fun (c : Sim_grid.cell) -> c.system = sys) cells in
      let wall = List.fold_left (fun acc (c : Sim_grid.cell) -> acc +. c.wall_s) 0.0 cs in
      let ev = List.fold_left (fun acc (c : Sim_grid.cell) -> acc + c.result.events) 0 cs in
      add ("sim.ns_per_event." ^ Sim_grid.layer_of sys) (wall *. 1e9 /. float_of_int (max 1 ev)))
    [ "tq"; "shinjuku"; "caladan" ];
  J.Obj (List.rev_map (fun (k, v) -> (k, J.Number v)) !out)
