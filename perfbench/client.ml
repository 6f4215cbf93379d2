(* Open-loop ladder client for tq_serve.

   One process, one thread, [conns] pipelined connections.  Every
   request of the run is generated before the run starts (Poisson
   arrivals from the seed) and timed from its *due* time, so a client
   that falls behind shows up as send lag instead of hiding queueing
   (coordinated omission).  The server only ever sees these generated
   requests.

   Output, in [out_dir]:
   - samples.bin: little-endian int64 triples (step, kind, value_ns)
     for every request due inside a step's measurement window; kinds
     are [k_short] .. [k_set] (latency of an Ok reply, due -> receive)
     and [k_lag] (send lag, due -> handed to the socket).
   - summary.json: per-step counts, CPU deltas, and the run's output
     checks.

   Every step ends with a drain: no step is sent into the backlog of
   the one before it. *)

module P = Tq_serve.Protocol

(* request kinds *)
let k_short = 0
let k_heavy = 1
let k_get = 2
let k_set = 3
let k_lag = 9

type mix = {
  echo : float;  (** weight of short echoes *)
  heavy : float;  (** weight of heavy echoes *)
  kv : float;  (** weight of KV requests *)
  spin_ns : int;
  heavy_spin_ns : int;
  set_frac : float;
  keys : int;
}

type step = { name : string; rate : float; dur_s : float; warm_s : float }

let parse_mix s =
  match String.split_on_char ',' s with
  | [ echo; heavy; kv; spin; hspin; setf; keys ] ->
      {
        echo = float_of_string echo;
        heavy = float_of_string heavy;
        kv = float_of_string kv;
        spin_ns = int_of_string spin;
        heavy_spin_ns = int_of_string hspin;
        set_frac = float_of_string setf;
        keys = int_of_string keys;
      }
  | _ -> failwith ("bad --mix " ^ s)

let parse_steps s =
  List.map
    (fun st ->
      match String.split_on_char ':' st with
      | [ name; rate; dur; warm ] ->
          {
            name;
            rate = float_of_string rate;
            dur_s = float_of_string dur;
            warm_s = float_of_string warm;
          }
      | _ -> failwith ("bad step " ^ st))
    (String.split_on_char ',' s)

(* One arrival of the mix: its kind and (for KV) key. *)
let sample rng mix =
  let r = Tq_util.Prng.float rng (mix.echo +. mix.heavy +. mix.kv) in
  if r < mix.echo then (k_short, 0)
  else if r < mix.echo +. mix.heavy then (k_heavy, 0)
  else
    let key = Tq_util.Prng.int rng mix.keys in
    ((if Tq_util.Prng.bernoulli rng ~p:mix.set_frac then k_set else k_get), key)

let payload_of id =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int id);
  Bytes.unsafe_to_string b

(* The request of kind [kind] on [key] with wire id [id]: echoes carry
   the id as payload and SETs write ["s" ^ id], so replies and GETs show
   which request they belong to. *)
let request mix ~id kind key =
  match kind with
  | k when k = k_short -> P.Echo { spin_ns = mix.spin_ns; payload = payload_of id }
  | k when k = k_heavy -> P.Echo { spin_ns = mix.heavy_spin_ns; payload = payload_of id }
  | k when k = k_get -> P.Kv_get { key = Tq_serve.App.kv_key key }
  | _ -> P.Kv_set { key = Tq_serve.App.kv_key key; value = "s" ^ string_of_int id }

(* {2 Clock and /proc} *)

let t_base = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. t_base) *. 1e9)

let read_file path =
  try
    let ic = open_in path in
    let s = try input_line ic with End_of_file -> "" in
    close_in ic;
    Some s
  with Sys_error _ -> None

(* utime + stime in clock ticks from a /proc stat line: fields 14 and
   15, counted after the parenthesised command name *)
let stat_ticks line =
  match String.rindex_opt line ')' with
  | None -> 0
  | Some i ->
      let rest = String.sub line (i + 2) (String.length line - i - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      if Array.length f < 13 then 0 else int_of_string f.(11) + int_of_string f.(12)

(* (whole process, main thread, other threads) CPU ticks of [pid] *)
let proc_cpu pid =
  if pid <= 0 then (0, 0, 0)
  else
    let total =
      match read_file (Printf.sprintf "/proc/%d/stat" pid) with
      | Some l -> stat_ticks l
      | None -> 0
    in
    let main = ref 0 and others = ref 0 in
    (try
       Array.iter
         (fun tid ->
           match read_file (Printf.sprintf "/proc/%d/task/%s/stat" pid tid) with
           | Some l ->
               let t = stat_ticks l in
               if tid = string_of_int pid then main := !main + t
               else others := !others + t
           | None -> ())
         (Sys.readdir (Printf.sprintf "/proc/%d/task" pid))
     with Sys_error _ -> ());
    (total, !main, !others)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {2 Run} *)

type conn = {
  fd : Unix.file_descr;
  rb : P.Reassembly.t;
  out : P.Outbuf.t;
  scratch : Buffer.t;
}

type step_stats = {
  mutable window_start : int;
  mutable window_end : int;
  mutable sent : int;  (** due inside the window *)
  mutable ok : int;
  mutable shed : int;
  mutable errors : int;
  mutable late : int;  (** answered later than the grace, or never *)
  mutable ok_in_window : int;  (** Ok replies received inside the window *)
  mutable out_mid : int;
  mutable out_end : int;
  mutable cpu0 : int * int * int;
  mutable cpu1 : int * int * int;
  mutable self0 : float;
  mutable self1 : float;
}

let run ~port ~server_pid ~seed ~conns ~mix ~steps ~grace_s ~out_dir =
  let rng = Tq_util.Prng.create ~seed:(Int64.of_int seed) in
  let steps = Array.of_list steps in
  let nsteps = Array.length steps in
  (* generate every request up front: per request its step, due offset
     within the step, kind and key *)
  let gen =
    Array.map
      (fun st ->
        let n_est = int_of_float (st.rate *. st.dur_s) + 16 in
        let due = Tq_util.Ivec.create ~capacity:n_est () in
        let kinds = Tq_util.Ivec.create ~capacity:n_est () in
        let keys = Tq_util.Ivec.create ~capacity:n_est () in
        let horizon = st.dur_s *. 1e9 in
        let t = ref (Tq_util.Prng.exponential rng ~mean:(1e9 /. st.rate)) in
        while !t < horizon do
          Tq_util.Ivec.push due (int_of_float !t);
          let kind, key = sample rng mix in
          Tq_util.Ivec.push kinds kind;
          Tq_util.Ivec.push keys key;
          t := !t +. Tq_util.Prng.exponential rng ~mean:(1e9 /. st.rate)
        done;
        (Tq_util.Ivec.to_array due, Tq_util.Ivec.to_array kinds, Tq_util.Ivec.to_array keys))
      steps
  in
  let n = Array.fold_left (fun acc (d, _, _) -> acc + Array.length d) 0 gen in
  (* per request id (ids are 0 .. n-1 in send order) *)
  let r_step = Array.make n 0
  and r_kind = Array.make n 0
  and r_key = Array.make n 0
  and r_due = Array.make n 0
  and r_sent = Array.make n (-1)
  and r_recv = Array.make n (-1)
  and r_status = Array.make n (-1) (* 0 ok, 1 shed, 2 error *)
  and r_measured = Array.make n false
  and r_got = Array.make n (-2) (* GET: wire id of the SET whose value came back *) in
  (* failed checks: all counted, the first 20 described *)
  let violations = ref 0 and check_failures = ref [] in
  let violation fmt =
    Printf.ksprintf
      (fun s ->
        incr violations;
        if !violations <= 20 then check_failures := s :: !check_failures)
      fmt
  in
  let stats =
    Array.init nsteps (fun _ ->
        {
          window_start = 0;
          window_end = 0;
          sent = 0;
          ok = 0;
          shed = 0;
          errors = 0;
          late = 0;
          ok_in_window = 0;
          out_mid = 0;
          out_end = 0;
          cpu0 = (0, 0, 0);
          cpu1 = (0, 0, 0);
          self0 = 0.0;
          self1 = 0.0;
        })
  in
  let c =
    Array.init conns (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.set_nonblock fd;
        {
          fd;
          rb = P.Reassembly.create ();
          out = P.Outbuf.create ~capacity:65536 ();
          scratch = Buffer.create 256;
        })
  in
  let fds = Array.to_list (Array.map (fun c -> c.fd) c) in
  let samples = Buffer.create (1 lsl 20) in
  let sample step kind v =
    Buffer.add_int64_le samples (Int64.of_int step);
    Buffer.add_int64_le samples (Int64.of_int kind);
    Buffer.add_int64_le samples (Int64.of_int v)
  in
  let answered = ref 0 and sent_total = ref 0 in
  let late_ns = int_of_float (grace_s *. 1e9) in
  let on_response (resp : P.response) now =
    let id = resp.req_id in
    if id < 0 || id >= n || r_sent.(id) < 0 then violation "reply to unknown req_id %d" resp.req_id
    else if r_recv.(id) >= 0 then violation "req_id %d answered twice" id
    else begin
      incr answered;
      r_recv.(id) <- now;
      let st = stats.(r_step.(id)) in
      (match resp.status with
      | P.Ok ->
          r_status.(id) <- 0;
          let kind = r_kind.(id) in
          if kind = k_short || kind = k_heavy then begin
            if resp.body <> payload_of resp.req_id then
              violation "echo %d: payload did not round-trip" resp.req_id
          end
          else if kind = k_set then begin
            if resp.body <> "+" then violation "set %d: body %S" id resp.body
          end
          else begin
            let b = resp.body in
            let len = String.length b in
            if len > 2 && String.sub b 0 2 = "+s" then
              r_got.(id) <- int_of_string (String.sub b 2 (len - 2))
            else if b = "+" ^ Printf.sprintf "value%06d" r_key.(id) then r_got.(id) <- -1
            else violation "get %d: unexpected body %S" id b
          end;
          if r_measured.(id) then begin
            st.ok <- st.ok + 1;
            if now - r_due.(id) > late_ns then st.late <- st.late + 1
            else sample r_step.(id) kind (now - r_due.(id))
          end;
          if now >= st.window_start && now < st.window_end then
            st.ok_in_window <- st.ok_in_window + 1
      | P.Shed ->
          r_status.(id) <- 1;
          if r_measured.(id) then st.shed <- st.shed + 1
      | P.Error msg ->
          r_status.(id) <- 2;
          violation "req %d: server error %s" id msg;
          if r_measured.(id) then st.errors <- st.errors + 1)
    end
  in
  let chunk = Bytes.create 65536 in
  let rec drain_frames cn =
    match P.Reassembly.next cn.rb with
    | Error msg -> failwith ("protocol: " ^ msg)
    | Ok None -> ()
    | Ok (Some payload) ->
        (match P.decode_response payload with
        | Error msg -> failwith ("protocol: " ^ msg)
        | Ok resp -> on_response resp (now_ns ()));
        drain_frames cn
  in
  let rec read_conn cn =
    match Unix.read cn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "server closed the connection"
    | k ->
        P.Reassembly.add cn.rb chunk k;
        drain_frames cn;
        if k = Bytes.length chunk then read_conn cn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let flush_conn cn =
    if not (P.Outbuf.is_empty cn.out) then begin
      let buf, off, len = P.Outbuf.peek cn.out in
      match Unix.write cn.fd buf off len with
      | k -> P.Outbuf.consume cn.out k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    end
  in
  (* The client never sleeps: on a virtualised host a sleeping thread
     can wake up milliseconds late, which would show as send lag and
     late receive stamps.  So it polls, and takes one core for it. *)
  let poll () =
    let wfds =
      Array.fold_left (fun acc cn -> if P.Outbuf.is_empty cn.out then acc else cn.fd :: acc) [] c
    in
    match Unix.select fds wfds [] 0.0 with
    | r, _, _ ->
        Array.iter (fun cn -> if List.memq cn.fd r then read_conn cn) c;
        Array.iter flush_conn c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let drain () =
    let deadline = now_ns () + late_ns + 2_000_000_000 in
    while !answered < !sent_total && now_ns () < deadline do
      poll ()
    done
  in
  let next_id = ref 0 in
  Array.iteri
    (fun si st ->
      let due, kinds, keys = gen.(si) in
      let t0 = now_ns () in
      let stt = stats.(si) in
      stt.window_start <- t0 + int_of_float (st.warm_s *. 1e9);
      stt.window_end <- t0 + int_of_float (st.dur_s *. 1e9);
      let mid = (stt.window_start + stt.window_end) / 2 in
      let in_window = ref false and past_mid = ref false in
      let i = ref 0 in
      let m = Array.length due in
      while now_ns () < stt.window_end || !i < m do
        let now = now_ns () in
        if (not !in_window) && now >= stt.window_start then begin
          in_window := true;
          stt.cpu0 <- proc_cpu server_pid;
          stt.self0 <- self_cpu_s ()
        end;
        if (not !past_mid) && now >= mid then begin
          past_mid := true;
          stt.out_mid <- !sent_total - !answered
        end;
        while !i < m && t0 + due.(!i) <= now do
          let id = !next_id in
          incr next_id;
          r_step.(id) <- si;
          r_kind.(id) <- kinds.(!i);
          r_key.(id) <- keys.(!i);
          r_due.(id) <- t0 + due.(!i);
          let measured = r_due.(id) >= stt.window_start && r_due.(id) < stt.window_end in
          r_measured.(id) <- measured;
          let cn = c.(id mod conns) in
          Buffer.clear cn.scratch;
          P.encode_request cn.scratch ~req_id:id (request mix ~id r_kind.(id) r_key.(id));
          P.Outbuf.add_buffer cn.out cn.scratch;
          r_sent.(id) <- now;
          incr sent_total;
          if measured then begin
            stt.sent <- stt.sent + 1;
            sample si k_lag (now - r_due.(id))
          end;
          incr i
        done;
        Array.iter flush_conn c;
        poll ()
      done;
      stt.cpu1 <- proc_cpu server_pid;
      stt.self1 <- self_cpu_s ();
      stt.out_end <- !sent_total - !answered;
      drain ())
    steps;
  Array.iter (fun cn -> Unix.close cn.fd) c;
  (* unanswered requests *)
  let unanswered = !sent_total - !answered in
  if unanswered > 0 then violation "%d requests never answered" unanswered;
  for id = 0 to !sent_total - 1 do
    if r_recv.(id) < 0 && r_measured.(id) then begin
      let st = stats.(r_step.(id)) in
      st.late <- st.late + 1
    end
  done;
  (* GET-after-SET: a GET may return the value of a SET sent before the
     GET's reply arrived, unless a later SET on the key was acknowledged
     before the GET was sent and was itself sent after that SET's
     acknowledgement (then the value was overwritten for sure).  -1 is
     the server's prepopulated value. *)
  let sets_by_key = Array.make mix.keys [] in
  for id = !sent_total - 1 downto 0 do
    if r_kind.(id) = k_set && r_status.(id) = 0 then
      sets_by_key.(r_key.(id)) <- id :: sets_by_key.(r_key.(id))
  done;
  let gets_checked = ref 0 in
  for id = 0 to !sent_total - 1 do
    if r_kind.(id) = k_get && r_status.(id) = 0 then begin
      incr gets_checked;
      let key = r_key.(id) in
      let sets = sets_by_key.(key) in
      let v = r_got.(id) in
      let v_ack, ok_origin =
        if v >= 0 && v < n then
          (r_recv.(v), r_kind.(v) = k_set && r_key.(v) = key && r_status.(v) = 0
                       && r_sent.(v) < r_recv.(id))
        else (min_int, v = -1)
      in
      if not ok_origin then violation "get %d on key %d: value %d could not be current" id key v
      else if List.exists (fun w -> w <> v && r_sent.(w) > v_ack && r_recv.(w) < r_sent.(id)) sets
      then violation "get %d on key %d returned overwritten value %d" id key v
    end
  done;
  let count kind status =
    let k = ref 0 in
    for id = 0 to !sent_total - 1 do
      if (kind < 0 || r_kind.(id) = kind) && (status < 0 || r_status.(id) = status) then incr k
    done;
    !k
  in
  let oc = open_out_bin (Filename.concat out_dir "samples.bin") in
  Buffer.output_buffer oc samples;
  close_out oc;
  let module J = Tq_util.Json in
  let num x = J.Number x and int x = J.Number (float_of_int x) in
  let trip (a, b, c) = J.List [ int a; int b; int c ] in
  let step_json si st =
    let s = stats.(si) in
    J.Obj
      [
        ("name", J.String st.name);
        ("rate", num st.rate);
        ("window_s", num (float_of_int (s.window_end - s.window_start) /. 1e9));
        ("sent", int s.sent);
        ("ok", int s.ok);
        ("shed", int s.shed);
        ("errors", int s.errors);
        ("late", int s.late);
        ("ok_in_window", int s.ok_in_window);
        ("outstanding_mid", int s.out_mid);
        ("outstanding_end", int s.out_end);
        ("server_ticks0", trip s.cpu0);
        ("server_ticks1", trip s.cpu1);
        ("client_cpu_s", num (s.self1 -. s.self0));
      ]
  in
  let counts kind =
    J.Obj
      [ ("sent", int (count kind (-1))); ("ok", int (count kind 0)); ("shed", int (count kind 1));
        ("errors", int (count kind 2)) ]
  in
  let summary =
    J.Obj
      [
        ("steps", J.List (Array.to_list (Array.mapi step_json steps)));
        ("sent", int !sent_total);
        ("answered", int !answered);
        ("violations", int !violations);
        ("gets_checked", int !gets_checked);
        ("check_failures", J.List (List.rev_map (fun s -> J.String s) !check_failures));
        ( "per_class",
          J.Obj
            [ ("short", counts k_short); ("heavy", counts k_heavy);
              ("kv_get", counts k_get); ("kv_set", counts k_set) ] );
        ("all", counts (-1));
      ]
  in
  let oc = open_out (Filename.concat out_dir "summary.json") in
  output_string oc (Jsonx.to_string summary);
  close_out oc;
  !violations = 0
