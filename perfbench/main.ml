(* The benchmark's OCaml side, driven by run.py:

     main.exe client --port P --server-pid PID --seed N --conns C \
       --mix E,H,K,SPIN_NS,HEAVY_SPIN_NS,SET_FRAC,KEYS \
       --steps NAME:RPS:DUR_S:WARM_S,... --grace-s G --out DIR
     main.exe sim --seed N --dist NAME --loads L,... --duration-ms MS
     main.exe layers --seed N --mix ... --dist NAME

   [client] runs the open-loop ladder against a live tq_serve (see
   client.ml); [sim] runs a fixed DES grid and prints its wall time,
   each cell's wall time and its digest as one JSON line;
   [layers] prints the per-layer microbenchmark ledger as one JSON
   line. *)

module J = Tq_util.Json
module SD = Tq_workload.Service_dist

let us = Tq_util.Time_unit.us

(* DES models of the benchmark's workloads' service mixes *)
let dist = function
  | "small-rpc" ->
      SD.make ~name:"small-rpc"
        [
          { class_name = "Echo"; ratio = 0.75; sampler = Fixed (us 1.0) };
          { class_name = "Kv"; ratio = 0.25; sampler = Fixed (us 1.0) };
        ]
  | "bimodal-live" ->
      SD.make ~name:"bimodal-live"
        [
          { class_name = "Short"; ratio = 0.99; sampler = Fixed (us 1.0) };
          { class_name = "Heavy"; ratio = 0.01; sampler = Fixed (us 1000.0) };
        ]
  | s -> failwith ("unknown --dist " ^ s)

let floats s = List.map float_of_string (String.split_on_char ',' s)

let print_json j = print_endline (Jsonx.to_string j)

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: main.exe (client|sim|layers) [options]";
    exit 2
  end;
  let port = ref 0 and server_pid = ref 0 and seed = ref 1 and conns = ref 1 in
  let mix = ref "" and steps = ref "" and grace_s = ref 1.0 and out = ref "." in
  let dist_name = ref "small-rpc" and loads = ref "0.5,0.9" in
  let duration_ms = ref 1.0 in
  let specs =
    [
      ("--port", Arg.Set_int port, "server port");
      ("--server-pid", Arg.Set_int server_pid, "server pid (CPU accounting)");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--conns", Arg.Set_int conns, "client connections");
      ("--mix", Arg.Set_string mix, "request mix");
      ("--steps", Arg.Set_string steps, "ladder steps");
      ("--grace-s", Arg.Set_float grace_s, "reply grace");
      ("--out", Arg.Set_string out, "output directory");
      ("--dist", Arg.Set_string dist_name, "DES workload");
      ("--loads", Arg.Set_string loads, "DES loads");
      ("--duration-ms", Arg.Set_float duration_ms, "DES virtual duration per cell");
    ]
  in
  let cmd = Sys.argv.(1) in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
       "main.exe (client|sim|layers)"
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  match cmd with
  | "client" ->
      let ok =
        Client.run ~port:!port ~server_pid:!server_pid ~seed:!seed ~conns:!conns
          ~mix:(Client.parse_mix !mix) ~steps:(Client.parse_steps !steps) ~grace_s:!grace_s
          ~out_dir:!out
      in
      exit (if ok then 0 else 3)
  | "sim" ->
      let w0 = Unix.gettimeofday () in
      let grid =
        Sim_grid.run ~seed:!seed ~dist:(dist !dist_name) ~loads:(floats !loads)
          ~duration_ns:(int_of_float (!duration_ms *. 1e6))
      in
      print_json
        (J.Obj
           [
             ("wall_s", J.Number (Unix.gettimeofday () -. w0));
             ("cells_wall_s", J.List (List.map (fun c -> J.Number c.Sim_grid.wall_s) grid));
             ("digest", J.String (Sim_grid.digest grid));
           ])
  | "layers" ->
      print_json
        (Layers.run ~seed:!seed ~mix:(Client.parse_mix !mix) ~dist:(dist !dist_name)
           ~sim_loads:(floats !loads)
           ~sim_duration_ns:(int_of_float (!duration_ms *. 1e6)))
  | c ->
      prerr_endline ("unknown command " ^ c);
      exit 2
