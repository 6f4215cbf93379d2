(** One dispatcher lane of the multi-lane I/O plane.

    A lane is a self-contained copy of the classic dispatcher loop:
    it polls the shared {!Listener} (accept spreading hands it an even
    share of connections), owns those connections outright, steers
    their parsed requests into its own slice of the worker pool
    (workers [w] with [w mod lanes = lane_id] — preserving the SPSC
    one-producer-per-ring contract with zero coordination), polls its
    slice's reply rings and flushes responses back through pooled
    zero-copy framing.

    Nothing on the per-request path crosses lanes, so all per-lane
    state (connections, pending table, tallies, counters, latency,
    span sink) is single-writer plain mutable state.  Cross-lane reads
    of that state — the Stats RPC renderer, [Server.stats] — see
    word-sized plain loads: never torn, eventually consistent, exact
    once the lane's domain is joined.  {!Server} owns lane creation,
    lifecycle and the merged views; this interface exists for it and
    for whitebox tests. *)

(** What a worker pushes onto its reply ring: ids, stamps and the
    response frame in a pooled buffer.  Abstract outside the plane —
    {!Server} only needs the type to size the rings. *)
type reply

(** Everything the lanes share: the partitioned worker pool, the apps
    and reply rings (indexed by global worker), the buffer pool, the
    listener, the stop/pause controls and the fixed serving knobs. *)
type shared = {
  pool : Tq_runtime.Parallel.t;
  apps : App.t array;
  reply_rings : reply Tq_runtime.Spsc_ring.t array;
  bufs : Pool.t;
  listener : Listener.t;
  stop_flag : bool Atomic.t;
  paused_until_ns : int Atomic.t;  (** all lanes idle until this stamp *)
  spans : Tq_obs.Span.t;
  spans_on : bool;
  tail : Tq_obs.Tail.t;  (** tail-forensics reservoirs, one sink per lane *)
  tail_on : bool;
  lanes : int;
  rx_depth : int;
  drain_timeout_s : float;
  heartbeat_interval_ns : int;
  missed_heartbeats : int;
  ctl_latency_ns : int;  (** the controller objective's "good" cutoff *)
}

(** One lane. *)
type t

(** A consistent-on-join snapshot of lane tallies; field meanings are
    documented on [Server.stats], which is this type.  [parsed] is
    derived as [dispatched + shed] from the same two loads the record
    reports, so the accounting identity holds {e exactly} in every
    snapshot — even one rendered by another lane racing this lane's
    dispatch path.  [lost] counts requests still pending when the lane
    exited (their worker died and re-dispatch never landed); it feeds
    the [accepted = completed + lost + in_flight] ledger the server
    derives. *)
type counts = {
  connections : int;
  parsed : int;
  dispatched : int;
  completed : int;
  shed : int;
  lost : int;
  stats_served : int;
  protocol_errors : int;
  orphaned : int;
  duplicates : int;
  redispatched : int;
  dead_workers : int;
}

(** [create sh ~id ~reg ~admission] — lane [id] of [sh.lanes], using
    [reg] as its counter registry (single-writer: only this lane may
    bump it) and a fresh admission controller with policy [admission].
    Raises [Invalid_argument] when the lane's worker slice would be
    empty ([lanes] exceeds the pool's workers). *)
val create :
  shared -> id:int -> reg:Tq_obs.Counters.t -> admission:Tq_sched.Admission.policy -> t

(** The lane's index in [0, lanes). *)
val id : t -> int

(** The lane's counter registry (reads are cross-lane safe). *)
val registry : t -> Tq_obs.Counters.t

(** The lane's latency registry; pool lanes with [Latency.merge]. *)
val latency : t -> Tq_obs.Latency.t

(** The lane's admission controller — the feedback controller retunes
    every lane through [Admission.set_policy] (the policy cell is
    atomic). *)
val admission : t -> Tq_sched.Admission.t

(** Connections currently owned by the lane. *)
val open_conns : t -> int

(** Snapshot of the lane's tallies (plain cross-lane reads: eventually
    consistent live, exact after the lane's domain joins). *)
val counts : t -> counts

(** [total lanes] — the tallies summed over [lanes], one snapshot. *)
val total : t array -> counts

(** Requests dispatched but not yet completed by this lane. *)
val in_flight : t -> int

(** Span records this lane's sink lost to ring overwrites — the
    [obs.span_dropped] per-lane gauge; 0 means every span of every
    request is still in the buffer. *)
val span_dropped : t -> int

(** [ctl_counts t ~class_idx] — cumulative [(completed, good, shed)]
    for one request class: the controller's per-lane sensing input,
    summed across lanes by the lane-0 tick. *)
val ctl_counts : t -> class_idx:int -> int * int * int

(** [set_stats_renderer t f] wires the server-level closure that
    renders a Stats RPC view across all lanes; the lane answers stats
    requests synchronously through it.  Must be set before {!run}. *)
val set_stats_renderer :
  t -> (Protocol.stats_view -> (string, string) result) -> unit

(** [set_tick t f] — a hook called once per loop pass with the current
    wall clock; the server installs the controller tick and live-fault
    schedule on lane 0.  Must be set before {!run}. *)
val set_tick : t -> (now_ns:int -> unit) -> unit

(** [run t] — the lane loop: accept/read/dispatch/reply/flush until the
    shared stop flag is observed and the lane's own work has drained
    (bounded by [drain_timeout_s]).  Blocks; call from the lane's
    domain.  Closes the lane's connections on exit; the caller retains
    pool shutdown and listener close. *)
val run : t -> unit
