(** Experiment runner: executes a workload under a given mode and collects
    everything the paper's tables and figures need. *)

open Dlink_uarch
module Skip = Dlink_pipeline.Skip

type run = {
  mode : Sim.mode;
  workload_name : string;
  counters : Counters.t;  (** measurement-window deltas *)
  latencies_us : (string * float array) array;
      (** per request type, in request order *)
  tramp_calls : int;
  distinct_trampolines : int;
  rank_frequency : (float * float) list;
  tramp_stream : int array;  (** only when [record_stream] *)
  requests : int;
  wall_s : float;  (** host wall-clock seconds inside the measurement window *)
  sim_mips : float;
      (** simulator throughput: measured (simulated) instructions retired
          per host wall-clock second, in millions *)
}

val mips : instructions:int -> wall_s:float -> float
(** [instructions /. wall_s /. 1e6], 0 when [wall_s] is not positive. *)

val measure :
  ?context_switch_every:int ->
  ?retain_asid:bool ->
  mode:Sim.mode ->
  kernel:Dlink_pipeline.Kernel.t ->
  profile:Dlink_pipeline.Profile.t ->
  warmup:int ->
  requests:int ->
  exec:(int -> int) ->
  Workload.t ->
  run
(** The run-scenario measurement loop every driver shares, whatever its
    event source.  [exec r] executes request [r] through [kernel] —
    requests [0 .. warmup-1] are warmup, [warmup .. warmup+requests-1]
    measured — announcing its boundary with
    {!Dlink_pipeline.Kernel.note_boundary}, and returns its request type.  After warmup the profile is reset and
    attached to [kernel] and the counter baseline taken;
    [context_switch_every] then injects an OS context switch every N
    measured requests. *)

val run :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?requests:int ->
  ?warmup:int ->
  ?record_stream:bool ->
  ?context_switch_every:int ->
  ?retain_asid:bool ->
  mode:Sim.mode ->
  Workload.t ->
  run
(** Executes [warmup] requests (default: the workload's
    [warmup_requests]) outside the measurement window, then [requests]
    (default: the workload's default) inside it, through {!measure} with
    the live interpreter ([Sim.call]) as the executor. *)

val tramp_pki : run -> float
(** Table 2: trampoline instructions per kilo-instruction. *)

val mean_latency_us : run -> string -> float
(** Mean latency of a request type.  Raises [Not_found] for unknown types. *)

val compare_modes :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?requests:int ->
  Workload.t ->
  run * run
(** Convenience: the (base, enhanced) pair used throughout §5. *)
