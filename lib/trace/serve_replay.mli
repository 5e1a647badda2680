(** Replay source for {!Dlink_core.Serve}: service streams from
    packed-trace replay.  Cells run through {!Serve.run_cells}, so
    per-request latencies are bit-identical to the generate driver for
    replay-compatible configurations. *)

module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Workload = Dlink_core.Workload

val calibrate :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?requests:int ->
  ?warmup:int ->
  Workload.t ->
  int
(** Mean base-mode service cycles per request via counters-only replay;
    bit-identical to {!Serve.calibrate_generate}. *)

val trace_cell_cap : int
(** Longest stream (in measured requests) replayed from a cached packed
    trace; beyond it streams are generated and no trace is recorded. *)

val replay_stream :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  mode:Sim.mode ->
  flush:Serve.flush ->
  flush_every:int ->
  requests:int ->
  Trace.t ->
  Serve.stream
(** The service stream of [mode] under the flush policy by replaying the
    trace's warmup and first [requests] measured requests — equal to
    {!Serve.generate_stream} for replay-compatible configurations. *)

val run_cell :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?mean_service:int ->
  ?tr:Trace.t ->
  ?jobs:int ->
  cfg:Serve.config ->
  Workload.t ->
  Serve.cell
(** One cell via {!Serve.run_cells}.  Each stream is replayed — from [tr]
    for the cell's own mode when given, else from the cached trace — when
    the replay invariants hold and [requests <= trace_cell_cap], and
    generated otherwise.  Unless [mean_service] is given, the
    Base/No_flush stream is the calibration; a Base/No_flush cell thus
    costs one pass. *)

val sweep :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?jobs:int ->
  ?cfg:Serve.config ->
  loads:float list ->
  modes:Sim.mode list ->
  flushes:Serve.flush list ->
  Workload.t ->
  Serve.cell list
(** Mode x flush x load grid (in that nesting order), equal cell for cell
    to {!run_cell} over the same combinations.  Each distinct (mode,
    flush) stream, plus the calibration stream, executes once on the
    domain pool (stream source chosen as in {!run_cell}); every load is
    then queue arithmetic over its stream.  Results are independent of
    [jobs].  Raises [Invalid_argument] on an empty axis or a bad load. *)
