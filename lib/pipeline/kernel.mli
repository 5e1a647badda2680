(** The one retire pipeline.

    Every execution path in the repo drives this kernel: generate mode
    ({!Dlink_core.Sim} / {!Dlink_core.Experiment}), packed-trace replay
    ({!Dlink_trace.Replay}), the multi-process scheduler
    ({!Dlink_sched.Scheduler}) and its replay mirror
    ({!Dlink_trace.Sched_replay}), and the fault oracle's device under test
    ({!Dlink_fault.Oracle}).  The kernel is parameterized over two axes:

    - {b event source} — an interpreter ({!process_hooks} feeding a
      [Process.t]) or a packed-trace cursor ({!replay_request}).  Each
      fills one reused {!Dlink_mach.Event.t} in place, and both funnel
      into the same allocation-free {!retire}.
    - {b topology} — one kernel for a single process, or one per core
      behind {!Multi} for the ASID-tagged scheduler with a coherence bus.

    Instrumentation (profile, GOT-store sink, event tap, the fault hooks
    on the embedded {!Skip.t}) attaches to kernel-level points, so
    fuzzing, replay, and multi-process runs exercise literally the same
    code. *)

open Dlink_isa
open Dlink_mach
open Dlink_uarch

type t

(** [create ?ucfg ?skip_cfg ~with_skip ()] builds an engine, its counters,
    and — when [with_skip] — a skip controller wired to the engine's BTB
    and mispredict accounting.  GOT reads made by the skip controller
    resolve through {!set_read_got} (default: every slot reads 0, the
    replay convention). *)
val create : ?ucfg:Config.t -> ?skip_cfg:Skip.config -> with_skip:bool -> unit -> t

val ucfg : t -> Config.t
val engine : t -> Engine.t
val counters : t -> Counters.t
val skip : t -> Skip.t option
val profile : t -> Profile.t option

(** Late-bind GOT reads to the currently-running process's memory. *)
val set_read_got : t -> (Addr.t -> int) -> unit

(** Attach/detach the trampoline-call profile consulted at retire. *)
val set_profile : t -> Profile.t option -> unit

(** Attach the sink consulted on every retired GOT store — the multi-core
    topology points this at the coherence bus under the shared-guard
    policy. *)
val set_got_sink : t -> (Addr.t -> unit) option -> unit

(** Attach an event tap, fired after {!retire} on interpreter events only
    (never on replayed events or {!retire_store}); the fault oracle's
    projected control-flow collector and the invariant checker hang here.
    The tap must not keep the event past the call. *)
val set_tap : t -> (Event.t -> unit) option -> unit

(** Attach a request-boundary tap.  Every driver — generate, packed-trace
    replay, and the multi-process topology — announces the start of each
    request through {!note_boundary} with the workload's request-type id,
    so request-level instrumentation (the serving stack's latency
    attribution, invariant checkers) sees the same boundaries on every
    execution path.  A tap, not a retire-path branch: the packed retire
    loop never consults it. *)
val set_boundary_tap : t -> (rtype:int -> unit) option -> unit

(** Announce a request boundary to the attached tap (no-op without one). *)
val note_boundary : t -> rtype:int -> unit

(** Flush microarchitectural state on a context switch; unless
    [retain_asid], the skip controller's tables flush too. *)
val context_switch : ?retain_asid:bool -> t -> unit

(** Switch the engine's and skip controller's address-space tag. *)
val set_asid : t -> int -> unit

(** The retire pipeline: opportunity counters, engine accounting, skip
    controller, GOT-store sink, profile — in that order, on every path.
    The event's [plt_call]/[got_store] flags are classified by its source.
    Allocation-free; the event is not kept past the call. *)
val retire : t -> Event.t -> unit

(** Retire the dynamic loader's store of [addr] (a GOT rebinding or slot
    zeroing at dlopen/dlclose) as a plain 4-byte store at [pc], through a
    kernel-owned record.  [got_store] classifies [addr].  Does not fire
    the tap. *)
val retire_store : t -> pc:Addr.t -> got_store:bool -> Addr.t -> unit

(** Front-end consultation on a fetched direct call: the skip controller's
    redirect decision, or the architectural target when no controller is
    attached. *)
val fetch_call : t -> pc:Addr.t -> arch_target:Addr.t -> Addr.t

(** Interpreter event source: hooks feeding a [Process.t]'s fetch and
    retire streams through this kernel and then the tap.  The process
    classifies its events against its own loader. *)
val process_hooks : t -> Process.hooks

(** Packed-trace event source: replay events until [stop] (an event index,
    normally the next request boundary), consulting the skip controller on
    every direct call.  A redirect retires the call with [target] set to
    the function address ([aux] keeps the architectural target) and drops
    the skipped trampoline's in_plt continuation. *)
val replay_events : t -> Trace.Cursor.t -> stop:int -> unit

(** Seek to request [r] and replay it to its boundary. *)
val replay_request : t -> Trace.Cursor.t -> int -> unit
