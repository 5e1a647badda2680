(** Open-loop serving cells: offered load x link mode x flush policy,
    reporting goodput and tail latency per cell.

    A cell plays a deterministic open-loop client (Poisson or MMPP
    arrivals from {!Dlink_util.Arrival}) against a single-server bounded
    admission queue whose service times come from executing each request
    on the pipeline kernel.  Latency = queue wait + service, in simulated
    cycles; no host clock anywhere, so cells are bit-reproducible from
    their seeds.

    Service times depend on the (mode, flush) execution stream only,
    never on offered load: a cell is one pass over a {!stream} — the
    per-request service cycles of one closed-loop execution — followed by
    O(requests) queue arithmetic.  The generate source lives here
    ({!generate_stream}); the packed-trace replay source is
    {!Dlink_trace.Serve_replay}.  Both feed {!run_cells}, so their
    per-request latencies are bit-identical. *)

open Dlink_uarch

(** What happens to the server's microarchitectural state every
    [flush_every] served requests — nothing, a full flush, or an
    ASID-retaining switch. *)
type flush = No_flush | Flush | Asid

val flush_names : string list
val flush_to_string : flush -> string
val flush_of_string : string -> flush option

type config = {
  mode : Sim.mode;
  load : float;  (** offered load as a fraction of base-mode capacity *)
  arrival : Dlink_util.Arrival.process;
  queue_cap : int;
  requests : int;
  flush : flush;
  flush_every : int;
  seed : int;
}

val default_config : config

val check_config : config -> unit
(** Raises [Invalid_argument] on a non-positive/non-finite load or
    non-positive queue_cap/flush_every. *)

(** {2 Queue engine}

    Service times are fed one request at a time, in request-index order,
    and each served request is folded into a caller-provided sink — O(1)
    queue memory at any cell size.  The engine also drives
    {!Dlink_util.Arrival.Closed} cells, whose arrivals are coupled to
    completions: a fixed client population thinks (exponential, mean set
    by the interactive response-time law [S * (clients/load - 1)])
    between a completion and its next request, so at most [clients]
    requests are outstanding and nothing is ever dropped. *)

type stream_sink = req:int -> lat:int -> wait:int -> unit
(** Called once per served request, in serve order, with cycles. *)

type stream_queue

val stream_queue :
  cfg:config -> mean_service:int -> sink:stream_sink -> stream_queue
(** Fresh engine for one cell; arrivals are generated internally
    (incrementally for open-loop processes, from completions for closed
    loop).  Raises [Invalid_argument] on a bad config or non-positive
    [mean_service]. *)

val stream_push : stream_queue -> req:int -> service:int -> unit
(** [stream_push t ~req ~service] resolves request [req]'s fate — serve
    (sink called) or drop.  Must be called exactly once for each
    [req = 0 .. requests-1], in increasing order.  Raises
    [Invalid_argument] on a negative service time. *)

val stream_served : stream_queue -> int
val stream_dropped : stream_queue -> int
val stream_busy_cycles : stream_queue -> int

val stream_span_cycles : stream_queue -> int
(** Completion time of the last served request so far. *)

(** {2 Cells} *)

type rtype_stats = {
  rt_name : string;
  rt_served : int;
  rt_mean_us : float;
  rt_p99_us : float;
}

type cell = {
  cfg : config;
  workload_name : string;
  mean_service_cycles : int;  (** base-mode calibration behind [load] *)
  served : int;
  dropped : int;
  lat_cycles : int array;  (** per served request, serve order *)
  recorder : Dlink_stats.Latency.t;
  offered_rps : float;
  goodput_rps : float;
  util : float;
  span_us : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  mean_wait_us : float;
  by_rtype : rtype_stats array;
  lat_fingerprint : int;
      (** Order-sensitive digest of (request index, latency, wait) folded
          in serve order — two drivers produce the same fingerprint iff
          every per-request outcome matches. *)
  counters : Counters.t;  (** measurement window of the cell's stream *)
}

val calibrate_generate :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?requests:int ->
  ?warmup:int ->
  Workload.t ->
  int
(** Mean base-mode service cycles per request (closed loop) — the
    capacity every [load] value is expressed against, measured in [Base]
    for every mode so all modes see the same arrival sequence. *)

(** {2 Service streams} *)

type stream = {
  services : int array;  (** service cycles per request, index order *)
  counters : Counters.t;  (** measurement-window counters of the pass *)
}
(** One closed-loop execution of the measured request sequence under a
    (mode, flush) pair.  Drops never touch machine state, so every load
    and arrival process over that pair shares the stream. *)

val stream_mean : stream -> int
(** [max 1 (sum / n)].  For the Base/No_flush stream this equals
    {!calibrate_generate} bit for bit. *)

val switch_before : flush:flush -> flush_every:int -> int -> bool option
(** [Some retain_asid] when the flush policy switches context before
    stream request [i] (every [flush_every] requests, never before the
    first). *)

val generate_stream :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  mode:Sim.mode ->
  flush:flush ->
  flush_every:int ->
  requests:int ->
  Workload.t ->
  stream
(** The stream by live interpretation ({!Sim}): warmup, then [requests]
    measured requests with the flush policy applied by stream index. *)

val stream_keys : ?mean_service:int -> config list -> (Sim.mode * flush) list
(** Distinct (mode, flush) streams the cells need, first-use order; the
    calibration stream leads unless [mean_service] is given. *)

val run_cells :
  ?jobs:int ->
  ?mean_service:int ->
  stream:(mode:Sim.mode -> flush:flush -> stream) ->
  Workload.t ->
  config list ->
  cell list
(** Execute each of {!stream_keys} once with [stream] on up to [jobs]
    domains, take the calibration from the Base/No_flush stream unless
    [mean_service] is given, and run each cell's queue arithmetic over
    its stream.  Cells come back in input order and are identical at any
    [jobs].  Raises [Invalid_argument] on a bad config or on cells that
    differ in [requests] or [flush_every]. *)

val run_cell_stream :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?mean_service:int ->
  ?jobs:int ->
  cfg:config ->
  Workload.t ->
  cell
(** One cell over generated streams: a single pass for a Base/No_flush
    cell (its stream is the calibration), otherwise the cell's stream and
    the calibration stream run concurrently on up to [jobs] domains.
    Raises [Invalid_argument] on a bad config. *)

val cell_json : ?hist:bool -> cell -> Dlink_util.Json.t
(** Cell report; with [hist], includes the log-bucket latency histogram
    as [(lo_us, hi_us, count)] triples. *)

val cell_label : cell -> string
(** Stable "<mode>_<arrival>_<flush>_load<l>" key for sweeps and bench
    leaves. *)
