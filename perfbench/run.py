#!/usr/bin/env python3
"""The tq benchmark: latency-load ladders on real sockets, a DES grid,
and a per-layer ledger.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-rpc --seed 1 --seconds 30 --trace 0

It builds tq_serve and the benchmark's own executable with dune, runs
the workload, checks every output, prints a human-readable report and,
as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  Any failed output check exits with
code 1 and prints no result line.  See perfbench/README.md.
"""

import argparse
import array
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

SERVE = os.path.join("_build", "default", "bin", "serve_main.exe")
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_DIR = ".perfbench_run"
REFERENCE = os.path.join("perfbench", "sim_reference.json")
GRID_SEEDS = 32  # the companion grid runs on grid seed --seed mod GRID_SEEDS

# Request kinds in the client's samples file (see perfbench/client.ml).
K_SHORT, K_HEAVY, K_GET, K_SET, K_LAG = 0, 1, 2, 3, 9
ALL_KINDS = (K_SHORT, K_HEAVY, K_GET, K_SET)

# A window whose send-lag p99 exceeds this share of its latency p99
# timed the client, not the server: it is left out of its step's
# figures.  A step with fewer valid windows than MIN_VALID of its
# windows is invalid, and an invalid step fails the run.
LAG_FRACTION = 0.25
MIN_VALID = 0.25
# A step passes when p99 <= SLO, at most 1% of its requests fail and
# its backlog grows by less than 1% of the requests sent in a window's
# second half, or by less than BACKLOG_FLOOR requests when that is
# more.
FAIL_LIMIT = 0.01
BACKLOG_FLOOR = 100
# Server spawns per run whose median is setup_s.
SETUPS = 15
# A live run is this many rounds of the whole ladder; each step's
# figures are medians over its valid windows, one per round.
ROUNDS = 20
# Companion DES grid runs per live run, half before the ladder and half
# after it, while no server runs, on each allowed CPU in turn.
# sim_wall_s sums, over the grid's cells, each cell's fastest run: a
# shared host's CPU speed shifts by up to 2x between spells that last
# about a second, and a cell's fastest run is the one least slowed by
# them.
GRIDS = 48
# Unrecorded start of every window.
WARMUP_S = 0.05
# Requests in one traced step: with about three lane spans and one or
# two worker spans each, well within the servers' 2^19-span buffers.
TRACED_MAX = 120000
# Windows per step of a traced run, so that one client stall leaves
# the step valid.
TRACED_WINDOWS = 4

# Each live workload is an ascending ladder of fixed open-loop Poisson
# rates (requests/s) from lo through hi to an overload step above
# saturation.  Rates and SLOs were fixed from measurements of the seed
# on a 2-core host (README.md).  The mix is the client's --mix: weights
# of short echo, heavy echo and KV, the two spins in ns, the SET share
# and the key count.  companion_ms is the virtual time per cell of the
# DES grid of the same mix.
LIVE = {
    "small-rpc": {
        "mix": "0.75,0,0.25,1000,0,0.3,1024",
        "server": ["--cores", "1", "--lanes", "1", "--quantum-us", "100"],
        "lo": 5000, "hi": 30000, "ladder": [15000, 45000, 55000, 65000, 75000, 90000],
        "ovl": 130000, "slo_us": 15000.0,
        "dist": "small-rpc", "companion_ms": 0.75,
    },
    "bimodal-live": {
        "mix": "0.99,0.01,0,1000,1000000,0,1024",
        "server": ["--cores", "1", "--lanes", "1", "--quantum-us", "5"],
        "lo": 5000, "hi": 20000, "ladder": [10000, 30000, 40000, 50000, 60000],
        "ovl": 100000, "slo_us": 30000.0,
        "dist": "bimodal-live", "companion_ms": 3.0,
    },
}
# The companion DES grid: TQ, Shinjuku and Caladan on a live
# workload's service mix at these loads of TQ's 16-core capacity.
GRID_LOADS = [0.5, 0.8, 0.95, 1.2]


def cpu_layout():
    """Disjoint CPU sets: the last allowed CPU for the client, the rest
    for the server (both share one CPU on a single-CPU host)."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[:-1], cpus[-1:]) if len(cpus) > 1 else (cpus, cpus)


SERVER_CPUS, CLIENT_CPUS = cpu_layout()


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- summarizer

def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list; q is a fraction in (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile takes a fraction in (0, 1], got %r" % q)
    if not sorted_values:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def quantile_self_check():
    """Pin p50/p99 of a known distribution through quantile()."""
    rng = random.Random(7)
    values = list(range(1, 100001))
    rng.shuffle(values)
    s = sorted(values)
    got = (quantile(s, 0.50), quantile(s, 0.99), quantile(s, 0.999))
    if got != (50000, 99000, 99900):
        raise CheckFailed("quantile self-check: got %r for 1..100000" % (got,))
    try:
        quantile(s, 99.0)
    except ValueError:
        return
    raise CheckFailed("quantile self-check: a percent was accepted as a fraction")


# ---------------------------------------------------------------- processes

class Procs:
    """Every child process of the run, stopped and reaped on exit."""

    def __init__(self):
        self.live = []

    def spawn(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.live.append(p)
        return p

    def stop(self, p, timeout=15.0):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p in self.live:
            self.live.remove(p)
        return p.returncode

    def stop_all(self):
        for p in list(self.live):
            if p.poll() is None:
                p.kill()
            p.wait()
        self.live = []


def build():
    """Build in the checkout only: no shared dune cache outside it."""
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./bin/serve_main.exe",
         "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise SystemExit("perfbench: build failed")


# ---------------------------------------------------------------- wire protocol

def frame(payload):
    return struct.pack(">I", len(payload)) + payload


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf


def recv_response(sock):
    (n,) = struct.unpack(">I", recv_exact(sock, 4))
    payload = recv_exact(sock, n)
    req_id, status = struct.unpack(">QB", payload[:9])
    return req_id, status, payload[9:]


def stats_view(port, view):
    """One Stats RPC; view 0 is the JSON snapshot, 3 the breakdown."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(frame(struct.pack(">QBB", 1, 4, view)))
        _, status, body = recv_response(s)
    if status != 0:
        raise CheckFailed("stats view %d answered status %d: %s" % (view, status, body[:200]))
    return json.loads(body)


class Server:
    def __init__(self, procs, args, out_dir, tag):
        self.procs = procs
        self.log_path = os.path.join(out_dir, "serve-%s.log" % tag)
        self.log = open(self.log_path, "w")
        self.t_spawn = time.time()
        self.proc = procs.spawn([SERVE, "--port", "0"] + args, stdout=self.log,
                                stderr=subprocess.STDOUT, preexec_fn=pinned(SERVER_CPUS))
        self.port = None
        self.setup_s = None

    def wait_ready(self, deadline_s=20.0):
        """Port from the listening line, then one echo round trip: the
        set-up time is spawn to the first Ok reply."""
        end = time.time() + deadline_s
        while self.port is None:
            if time.time() > end or self.proc.poll() is not None:
                raise CheckFailed("tq_serve did not start: see " + self.log_path)
            with open(self.log_path) as f:
                for line in f:
                    if "listening on" in line:
                        self.port = int(line.split(" (")[0].rsplit(":", 1)[1])
            if self.port is None:
                time.sleep(0.0005)
        with socket.create_connection(("127.0.0.1", self.port), timeout=20) as s:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.sendall(frame(struct.pack(">QBI", 0, 0, 0) + b"setup"))
            _, status, body = recv_response(s)
            if status != 0 or body != b"setup":
                raise CheckFailed("set-up echo failed: status %d body %r" % (status, body))
        self.setup_s = time.time() - self.t_spawn

    def vmhwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        rc = self.procs.stop(self.proc)
        self.log.close()
        if rc != 0:
            raise CheckFailed("tq_serve exited %s after drain: see %s" % (rc, self.log_path))


# ---------------------------------------------------------------- live ladder

def ladder_plan(cfg, seconds):
    """The ladder as steps (name, rate, duration_s, warmup_s): ROUNDS
    rounds, each one window of every step, ascending to the overload
    step; lo and hi take 27% of a round each, the other steps share the
    rest.  Every step is thus measured in windows spread over the whole
    run."""
    per_round = seconds / ROUNDS
    rest = [("r%d" % r, r) for r in sorted(cfg["ladder"])] + [("ovl", cfg["ovl"])]
    first = [("lo", cfg["lo"], 0.27 * per_round, WARMUP_S),
             ("hi", cfg["hi"], 0.27 * per_round, WARMUP_S)]
    # every window records at least 0.1 s, however short the run
    second = [(n, r, max(WARMUP_S + 0.1, 0.46 * per_round / len(rest)), WARMUP_S)
              for n, r in rest]
    return (first + second) * ROUNDS


def run_client(procs, server, cfg, seed, steps, out_dir, conns):
    """One client process; returns its summary and samples."""
    spec = ",".join("%s:%r:%r:%r" % s for s in steps)
    total = sum(s[2] for s in steps)
    argv = [MAIN, "client", "--port", str(server.port), "--server-pid", str(server.proc.pid),
            "--seed", str(seed), "--conns", str(conns), "--mix", cfg["mix"], "--steps", spec,
            "--grace-s", "1.0", "--out", out_dir]
    p = procs.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                    preexec_fn=pinned(CLIENT_CPUS))
    try:
        out, _ = p.communicate(timeout=total + 60)
    except subprocess.TimeoutExpired:
        procs.stop(p)
        raise CheckFailed("client timed out")
    procs.live.remove(p)
    if p.returncode not in (0, 3):
        raise CheckFailed("client exited %d: %s" % (p.returncode, out[-2000:]))
    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    if summary["check_failures"]:
        raise CheckFailed("client checks: " + "; ".join(summary["check_failures"][:5]))
    samples = array.array("q")
    with open(os.path.join(out_dir, "samples.bin"), "rb") as f:
        samples.frombytes(f.read())
    if sys.byteorder != "little":
        samples.byteswap()
    return summary, samples


def check_ledger(summary, stats, probes):
    """The client's own counts against the server's Stats ledger, at
    quiescence; [probes] set-up echoes went to this server too."""
    a, pc = summary["all"], summary["per_class"]
    cls = stats["per_class"]
    want = [
        ("dispatched + shed", stats["dispatched"] + stats["shed"], a["sent"] + probes),
        ("shed", stats["shed"], a["shed"]),
        ("completed", stats["completed"], a["ok"] + a["errors"] + probes),
        ("echo", cls["echo"]["dispatched"] + cls["echo"]["shed"],
         pc["short"]["sent"] + pc["heavy"]["sent"] + probes),
        ("kv_get", cls["kv_get"]["dispatched"] + cls["kv_get"]["shed"], pc["kv_get"]["sent"]),
        ("kv_set", cls["kv_set"]["dispatched"] + cls["kv_set"]["shed"], pc["kv_set"]["sent"]),
        ("lost", stats["lost"], 0),
        ("in_flight", stats["in_flight"], 0),
        ("protocol_errors", stats["protocol_errors"], 0),
    ]
    bad = ["%s: server %d, client %d" % (n, s, c) for n, s, c in want if s != c]
    if bad:
        raise CheckFailed("ledger mismatch: " + "; ".join(bad))


class StepView:
    """Every window of one ladder step.  Its figures are medians or sums
    over the valid windows: those whose send-lag p99 is within
    LAG_FRACTION of their latency p99."""

    def __init__(self, name, rate):
        self.name, self.rate = name, rate
        self.windows = []  # client summaries of the windows
        self.lat = []  # per window: {kind: [latency ns]}
        self.lag = []  # per window: [send lag ns]
        self.valid = []  # indices of the valid windows

    def add_window(self, w):
        self.windows.append(w)
        self.lat.append({k: [] for k in (K_SHORT, K_HEAVY, K_GET, K_SET)})
        self.lag.append([])

    def window_lat(self, i, kinds=ALL_KINDS):
        return sorted(x for k in kinds for x in self.lat[i][k])

    def window_lag_p99_us(self, i):
        return pct_us(sorted(self.lag[i]), 0.99) if self.lag[i] else 0.0

    def judge(self):
        """Pick the valid windows; an invalid step fails the run."""
        self.valid = [i for i, lat in enumerate(self.window_lat(i) for i in range(len(self.lat)))
                      if lat and self.window_lag_p99_us(i) <= LAG_FRACTION * pct_us(lat, 0.99)]
        if len(self.valid) < max(1, MIN_VALID * len(self.windows)):
            raise CheckFailed(
                "step %s invalid: send-lag p99 above %g of latency p99 in %d of %d windows"
                % (self.name, LAG_FRACTION, len(self.windows) - len(self.valid),
                   len(self.windows)))

    def median_pct_us(self, q, kinds=ALL_KINDS):
        """The median over valid windows of each window's q-quantile (in
        us): one stall in one window does not move it."""
        per = [self.window_lat(i, kinds) for i in self.valid]
        return statistics.median(pct_us(w, q) for w in per if w)

    def samples(self, kinds=ALL_KINDS):
        return sum(len(self.lat[i][k]) for i in self.valid for k in kinds)

    def total(self, key):
        return sum(self.windows[i][key] for i in self.valid)

    def window_s(self):
        return self.total("window_s")

    def failed(self):
        return self.total("shed") + self.total("errors") + self.total("late")

    def fail_frac(self):
        return statistics.median(
            (w["shed"] + w["errors"] + w["late"]) / max(1, w["sent"])
            for w in (self.windows[i] for i in self.valid))

    def backlog_growth(self):
        """Median over valid windows of the backlog's growth over the
        window's second half, in units of 1% of the requests sent in it,
        or of BACKLOG_FLOOR requests when that is more: below that,
        growth is the noise of the requests in flight at two instants."""
        return statistics.median(
            (w["outstanding_end"] - w["outstanding_mid"])
            / max(BACKLOG_FLOOR, 0.01 * w["sent"] / 2.0)
            for w in (self.windows[i] for i in self.valid))

    def lag_p99_us(self):
        return statistics.median(self.window_lag_p99_us(i) for i in self.valid)

    def ticks(self, idx):
        return sum(self.windows[i]["server_ticks1"][idx] - self.windows[i]["server_ticks0"][idx]
                   for i in self.valid)

    def ok_in_window(self):
        return self.total("ok_in_window")


def step_views(summary, samples):
    views = {}
    by_index = []
    for w in summary["steps"]:
        v = views.get(w["name"])
        if v is None:
            v = views[w["name"]] = StepView(w["name"], w["rate"])
        v.add_window(w)
        by_index.append((v, len(v.windows) - 1))
    for j in range(0, len(samples), 3):
        v, i = by_index[samples[j]]
        kind, val = samples[j + 1], samples[j + 2]
        if kind == K_LAG:
            v.lag[i].append(val)
        else:
            v.lat[i][kind].append(val)
    for v in views.values():
        v.judge()
    return list(views.values())


def pct_us(sorted_ns, q):
    return quantile(sorted_ns, q) / 1e3


def interpolated_capacity(pts):
    """[pts] are (rate, score) pairs, ascending; a step passes at score
    <= 1.  The capacity is the rate where the running maximum of the
    score crosses 1, interpolated in log space between the last step
    below it and the first above, so it moves smoothly instead of
    jumping a whole step; 0 when the first step fails."""
    best, prev = 0.0, None
    for rate, score in pts:
        if prev is not None:
            score = max(score, prev[1])
        if score > 1.0:
            if prev is not None:
                (r0, s0), (r1, s1) = prev, (rate, score)
                f = -math.log(max(s0, 1e-9)) / (math.log(s1) - math.log(max(s0, 1e-9)))
                best = math.exp(math.log(r0) + f * (math.log(r1) - math.log(r0)))
            return best
        best, prev = rate, (rate, score)
    return best


def step_score(v, slo_us):
    return max(v.median_pct_us(0.99) / slo_us, v.fail_frac() / FAIL_LIMIT, v.backlog_growth())


def capacity(views, slo_us):
    return interpolated_capacity(
        [(v.rate, step_score(v, slo_us)) for v in sorted(views, key=lambda v: v.rate)])


def step_report(views, slo_us, meta):
    """Per step: valid windows, samples, median-of-windows p50/p99, fail
    fraction, backlog growth, score, send-lag p99, sent and Ok rates;
    the same in [meta]."""
    meta["steps"] = {}
    for v in sorted(views, key=lambda v: v.rate):
        row = {
            "rate": v.rate, "windows": len(v.windows), "valid": len(v.valid),
            "samples": v.samples(), "p50_us": v.median_pct_us(0.5),
            "p99_us": v.median_pct_us(0.99), "fail_frac": v.fail_frac(),
            "backlog": v.backlog_growth(), "score": step_score(v, slo_us),
            "lag_p99_us": v.lag_p99_us(), "sent_rps": v.total("sent") / v.window_s(),
            "ok_rps": v.ok_in_window() / v.window_s(),
        }
        meta["steps"][v.name] = row
        log("  step %(name)-6s %(rate)7.0f rps  valid %(valid)2d/%(windows)-2d n=%(samples)-7d "
            "p50 %(p50_us)8.1f us  p99 %(p99_us)8.1f us  fail %(fail_frac).4f  "
            "backlog %(backlog)5.2f  score %(score)5.2f  lag p99 %(lag_p99_us)7.1f us  "
            "sent/s %(sent_rps)7.0f  ok/s %(ok_rps)7.0f" % dict(row, name=v.name))


def live_e2e(procs, cfg, seed, seconds, out_dir, conns, meta):
    reference = read_reference(cfg)
    walls = [companion_grid(procs, cfg, seed, reference, k) for k in range(GRIDS // 2)]
    setups = []
    server = None
    for k in range(SETUPS):
        server = Server(procs, cfg["server"], out_dir, "setup%d" % k)
        server.wait_ready()
        setups.append(server.setup_s)
        if k < SETUPS - 1:
            server.stop()
    summary, samples = run_client(procs, server, cfg, seed, ladder_plan(cfg, seconds),
                                  out_dir, conns)
    stats = stats_view(server.port, 0)
    check_ledger(summary, stats, probes=1)
    rss = server.vmhwm_mb()
    server.stop()
    walls += [companion_grid(procs, cfg, seed, reference, k) for k in range(GRIDS // 2, GRIDS)]
    views = {v.name: v for v in step_views(summary, samples)}
    step_report(views.values(), cfg["slo_us"], meta)
    lo, hi, ovl = views["lo"], views["hi"], views["ovl"]
    sub = [v for v in views.values() if v.rate <= cfg["hi"]]
    short = (K_SHORT, K_GET, K_SET)
    log("  samples: lo %d, hi %d, hi short %d, over %d and %d valid windows"
        % (lo.samples(), hi.samples(), hi.samples(short), len(lo.valid), len(hi.valid)))
    cpu_s = hi.ticks(0) / os.sysconf("SC_CLK_TCK")
    sent = sum(v.total("sent") for v in sub)
    failed = sum(v.failed() for v in sub)
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_us.lo": lo.median_pct_us(0.5),
        "p99_us.lo": lo.median_pct_us(0.99),
        "p50_us.hi": hi.median_pct_us(0.5),
        "p99_us.hi": hi.median_pct_us(0.99),
        "short_p99_us.hi": hi.median_pct_us(0.99, short),
        "capacity_rps": capacity(views.values(), cfg["slo_us"]),
        "max_ok_rps": ovl.ok_in_window() / ovl.window_s(),
        "ok_frac": 1.0 - failed / max(1, sent),
        "server_cpu_us_per_req.hi": cpu_s * 1e6 / max(1, hi.ok_in_window()),
        "peak_rss_mb": rss,
        "sim_wall_s": sum(min(cell) for cell in zip(*(w["cells_wall_s"] for w in walls))),
    }
    meta["setup_s_samples"] = setups
    meta["companion_grid"] = {"dist": cfg["dist"], "digest": walls[0]["digest"],
                              "wall_s": [w["wall_s"] for w in walls]}
    return metrics, summary["sent"]


# ---------------------------------------------------------------- DES grid

def sim_grid(procs, dist, seed, duration_ms, cpu):
    """One run of the grid on [cpu], in a fresh process so every run
    starts from the same heap."""
    p = procs.spawn([MAIN, "sim", "--seed", str(seed), "--dist", dist,
                     "--loads", ",".join(repr(l) for l in GRID_LOADS),
                     "--duration-ms", repr(duration_ms)],
                    stdout=subprocess.PIPE, text=True, preexec_fn=pinned([cpu]))
    body, _ = p.communicate(timeout=170)
    procs.live.remove(p)
    if p.returncode != 0:
        raise CheckFailed("DES grid exited %d" % p.returncode)
    return json.loads(body)


def grid_signature(cfg):
    return {"dist": cfg["dist"], "loads": GRID_LOADS, "duration_ms": cfg["companion_ms"]}


def companion_grid(procs, cfg, seed, reference, k):
    """Run [k] of the DES grid of a live workload's service mix: the
    simulator's wall time on that workload.  Its digest must equal the
    reference for its grid seed."""
    grid_seed = seed % GRID_SEEDS
    cpus = sorted(os.sched_getaffinity(0))
    run = sim_grid(procs, cfg["dist"], grid_seed, cfg["companion_ms"], cpus[k % len(cpus)])
    want = reference["digests"][str(grid_seed)]
    if run["digest"] != want:
        raise CheckFailed("DES digest %s != reference %s for %s grid seed %d"
                          % (run["digest"], want, cfg["dist"], grid_seed))
    return run


def read_reference(cfg):
    with open(REFERENCE) as f:
        ref = json.load(f)[cfg["dist"]]
    if ref["grid"] != grid_signature(cfg):
        raise CheckFailed("%s is for another %s grid: %r" % (REFERENCE, cfg["dist"], ref["grid"]))
    return ref


def write_reference():
    """The DES digests every later run is checked against: rerun this
    only for a deliberate change to the simulator's results."""
    procs = Procs()
    try:
        out = {cfg["dist"]: {"grid": grid_signature(cfg),
                             "digests": {str(s): sim_grid(procs, cfg["dist"], s,
                                                          cfg["companion_ms"],
                                                          CLIENT_CPUS[0])["digest"]
                                         for s in range(GRID_SEEDS)}}
               for cfg in LIVE.values()}
    finally:
        procs.stop_all()
    with open(REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------- traced run

def stage_ns(bd, stage, key):
    return bd["stages"][stage][key] * 1e3


def live_trace(procs, cfg, seed, seconds, out_dir, conns, meta):
    metrics = {}
    # untraced .hi, for the tracing overhead and the client's own costs
    server = Server(procs, cfg["server"], out_dir, "untraced")
    server.wait_ready()
    d = max(1.0, 0.2 * seconds)
    window = ("hi", cfg["hi"], d / TRACED_WINDOWS, WARMUP_S)
    summary, samples = run_client(procs, server, cfg, seed, [window] * TRACED_WINDOWS,
                                  out_dir, conns)
    stats = stats_view(server.port, 0)
    check_ledger(summary, stats, probes=1)
    server.stop()
    (hi_u,) = step_views(summary, samples)
    tck = os.sysconf("SC_CLK_TCK")
    untraced_p50 = hi_u.median_pct_us(0.5)
    untraced_cpu = hi_u.ticks(0) / tck * 1e6 / max(1, hi_u.ok_in_window())
    metrics["client.send_lag_us.p99"] = hi_u.lag_p99_us()
    metrics["client.cpu_us_per_req"] = (
        hi_u.total("client_cpu_s") * 1e6 / max(1, hi_u.total("sent")))
    metrics["client.fail_frac"] = hi_u.fail_frac()
    attempted = summary["sent"]
    # the same ladder with spans on: one fresh server per step, so no
    # span buffer wraps
    rates = sorted(set([cfg["lo"], cfg["hi"]] + cfg["ladder"]))
    cap = 1 << 19  # spans per domain; a window sends at most TRACED_MAX requests
    dropped, exact, shed, parsed = 0, 1.0, 0, 0
    per_step = {}
    for r in rates:
        dur = min(max(0.6, (0.15 if r == cfg["hi"] else 0.05) * seconds), TRACED_MAX / r)
        server = Server(procs, cfg["server"] + ["--obs", "--obs-capacity", str(cap)],
                        out_dir, "obs%d" % r)
        server.wait_ready()
        window = ("s", r, dur / TRACED_WINDOWS, WARMUP_S)
        summary, samples = run_client(procs, server, cfg, seed + r, [window] * TRACED_WINDOWS,
                                      out_dir, conns)
        stats = stats_view(server.port, 0)
        bd = stats_view(server.port, 3)
        check_ledger(summary, stats, probes=1)
        server.stop()
        attempted += summary["sent"]
        (v,) = step_views(summary, samples)
        dropped += stats["spans"]["dropped"]
        exact = min(exact, bd["exact_fraction"])
        if r <= cfg["hi"]:
            shed += stats["shed"]
            parsed += stats["dispatched"] + stats["shed"]
        per_step[r] = (v, stats, bd)
    v, stats, bd = per_step[cfg["hi"]]
    done = max(1, v.ok_in_window())
    pool = stats["io_plane"]["pool"]
    metrics.update({
        "lane.parse_ns.p50": stage_ns(bd, "parse", "p50_us"),
        "lane.parse_ns.mean": stage_ns(bd, "parse", "mean_us"),
        "lane.dispatch_ns.p50": stage_ns(bd, "dispatch", "p50_us"),
        "lane.dispatch_ns.mean": stage_ns(bd, "dispatch", "mean_us"),
        "lane.reply_flush_ns.p50": stage_ns(bd, "reply_flush", "p50_us"),
        "lane.reply_flush_ns.p99": stage_ns(bd, "reply_flush", "p99_us"),
        "lane.shed_frac": shed / max(1, parsed),
        "lane.cpu_us_per_req": v.ticks(1) / tck * 1e6 / done,
        "pool.hit_ratio": pool["hits"] / max(1, pool["hits"] + pool["misses"]),
        "ring.hop_ns.p50": stage_ns(bd, "ring_hop", "p50_us"),
        "ring.hop_ns.p99": stage_ns(bd, "ring_hop", "p99_us"),
        "worker.first_run_wait_ns.p50": stage_ns(bd, "first_run_wait", "p50_us"),
        "worker.first_run_wait_ns.p99": stage_ns(bd, "first_run_wait", "p99_us"),
        "worker.preempt_overhead_ns.p99": stage_ns(bd, "preempt_overhead", "p99_us"),
        "worker.quanta_per_req": stats["runtime"]["quanta"] / max(1, stats["completed"]),
        "worker.yields_per_req": stats["runtime"]["yields"] / max(1, stats["completed"]),
        "worker.stalls": stats["runtime"]["stalls"],
        "worker.cpu_us_per_req": v.ticks(2) / tck * 1e6 / done,
        "trace.span_dropped": dropped,
        "trace.exact_fraction": exact,
        "trace.overhead.p50_us.hi": v.median_pct_us(0.5) - untraced_p50,
        "trace.overhead.server_cpu_us_per_req.hi": v.ticks(0) / tck * 1e6 / done - untraced_cpu,
    })
    if dropped != 0 or exact != 1.0:
        raise CheckFailed("traced run invalid: span_dropped %d, exact_fraction %r"
                          % (dropped, exact))
    metrics.update(layers(procs, cfg, seed))
    meta["traced_ladder"] = rates
    return metrics, attempted


def layers(procs, cfg, seed):
    p = procs.spawn([MAIN, "layers", "--seed", str(seed), "--mix", cfg["mix"], "--dist",
                     cfg["dist"], "--loads", "0.5,0.9", "--duration-ms", "2"],
                    stdout=subprocess.PIPE, text=True, preexec_fn=pinned(CLIENT_CPUS))
    body, _ = p.communicate(timeout=170)
    procs.live.remove(p)
    if p.returncode != 0:
        raise CheckFailed("layers exited %d" % p.returncode)
    return json.loads(body)


# ---------------------------------------------------------------- metadata

def metadata(workload, cfg, conns):
    def first_line(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  timeout=10).stdout.strip().splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            return "unknown"
    commit = "unknown"
    if os.path.exists("COMMIT"):
        with open("COMMIT") as f:
            commit = f.read().strip()
    elif os.path.isdir(".git"):
        commit = first_line(["git", "rev-parse", "HEAD"])
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "cpu_mask": sorted(os.sched_getaffinity(0)),
        "server_cpu_mask": SERVER_CPUS,
        "client_cpu_mask": CLIENT_CPUS,
        "client_conns": conns,
        "client_threads": 1,
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "ocaml": first_line(["ocamlfind", "ocamlopt", "-version"]),
        "commit": commit,
        "traffic": "loopback",
        "python": platform.python_version(),
        "server_args": cfg["server"] + ["--rx-depth 1024 (default)"],
        "mix": cfg["mix"],
        "slo_us": cfg["slo_us"],
    }


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(LIVE))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute %s and exit" % REFERENCE)
    args = ap.parse_args()
    if not (os.path.exists("dune-project") and os.path.isdir("bin")):
        sys.exit("perfbench: run from the root of a tq checkout (no dune-project/bin here)")
    if args.write_reference:
        build()
        write_reference()
        return
    build()
    out_dir = os.path.join(RUN_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(out_dir)
    conns = min(2, os.cpu_count() or 1)
    procs = Procs()
    cfg = LIVE[args.workload]
    meta = metadata(args.workload, cfg, conns)
    try:
        quantile_self_check()
        run = live_trace if args.trace else live_e2e
        metrics, attempted = run(procs, cfg, args.seed, args.seconds, out_dir, conns, meta)
        # the metric set is BENCHMARK.json's, name for name
        with open("BENCHMARK.json") as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(units):
            raise CheckFailed("metrics differ from BENCHMARK.json: extra %s, missing %s" % (
                sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics))))
        bad = [k for k, v in metrics.items() if not math.isfinite(v)]
        if bad:
            raise CheckFailed("non-finite metrics: %s" % bad)
    except CheckFailed as e:
        procs.stop_all()
        sys.stderr.write("perfbench: CHECK FAILED: %s\n" % e)
        sys.stderr.write("perfbench: run files kept in %s\n" % out_dir)
        sys.exit(1)
    finally:
        procs.stop_all()
    log("metadata " + json.dumps(meta, sort_keys=True))
    for k, v in sorted(metrics.items()):
        log("  %-42s %16.6f %s" % (k, v, units[k]))
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
