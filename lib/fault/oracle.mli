(** Differential correctness oracle for the trampoline-skip mechanism.

    Runs the identical request stream through two machines sharing one
    loaded image: a {e reference} with no skip hardware (every call takes
    its architectural trampoline path) and a {e device under test} with
    the full Enhanced pipeline (engine + ABTB/Bloom skip unit), optionally
    under an injected {!Plan.t}.

    Because every non-PLT retired instruction is a pure function of
    per-site occurrence counters (see {!Dlink_mach.Process}), the two
    runs' control-flow streams — projected to library calls and the first
    instruction retired outside any PLT and outside the dynamic linker —
    must be identical.  Each divergence is classified:

    - {e mis-skip}: the DUT skipped a trampoline and retired a stale
      target while the reference reached the current binding — a
      correctness violation.  The oracle reports it to the skip unit
      (eviction + quarantine) and resynchronises the DUT's architectural
      state so the streams re-converge.
    - {e lost skip}: the DUT executed a trampoline it had skipped before
      and still reached the same destination — performance-only.
    - anything else is {e unclassified} and counts as a property failure
      (it would mean the projection itself broke). *)

open Dlink_isa
open Dlink_uarch
module Skip = Dlink_pipeline.Skip
module Workload = Dlink_core.Workload

type divergence = {
  request : int;
  site : Addr.t;  (** call-site PC *)
  arch_target : Addr.t;  (** trampoline (PLT entry) address *)
  ref_dest : Addr.t;
  dut_dest : Addr.t;
  mis_skip : bool;  (** [false] = unclassified *)
}

type report = {
  requests : int;
  mis_skips : int;
  lost_skips : int;
  unclassified : int;
  quarantine_entries : int;
  skips : int;  (** DUT trampoline skips *)
  faults_injected : int;
  cooldown_requests : int;
  cooldown_mis_skips : int;
  cooldown_skips : int;
      (** skips retired during the fault-free cooldown phase — nonzero
          demonstrates recovery after quarantine *)
  counters : Counters.t;  (** full DUT counter set (fresh copy) *)
  divergences : divergence list;
      (** mis-skips and unclassified divergences, oldest first, capped *)
}

val run :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?plan:Plan.t ->
  ?requests:int ->
  ?cooldown:int ->
  Workload.t ->
  report
(** [requests] defaults to the workload's [default_requests]; [cooldown]
    (default 0) extra requests are executed after the plan's last event
    with injection quiesced.  Fully deterministic: equal arguments give a
    bit-identical report. *)

(** {2 Projection and classification machinery}

    Shared with the churn oracle ({!Churn_oracle}), which drives a
    different execution loop (dlopen/dlclose interleaved with calls) over
    the same record projection and divergence taxonomy. *)

type record = {
  r_site : Addr.t;  (** call-site PC *)
  r_tramp : Addr.t;  (** architectural target: the PLT entry *)
  r_dest : Addr.t;  (** destination actually reached *)
  r_skipped : bool;
}
(** One projected library call: a direct call whose architectural target
    is a PLT entry, paired with the destination it actually reached — for
    a skipped call the redirect target, otherwise the PC of the first
    instruction retired outside any PLT and outside the dynamic linker. *)

type collector

val make_collector : unit -> collector
val collector_reset : collector -> unit

val collector_records : collector -> record list
(** Oldest first. *)

val collector_on_retire :
  in_ld_so:(Addr.t -> bool) ->
  collector ->
  Dlink_mach.Event.t ->
  unit
(** Feed one retired event.  Library calls are recognised by the event's
    [plt_call] flag, which the interpreter sets from its loader. *)

val diff_request :
  skip:Skip.t ->
  counters:Counters.t ->
  ever_skipped:(Addr.t, unit) Hashtbl.t ->
  on_unclassified:(unit -> unit) ->
  on_divergence:(divergence -> unit) ->
  request:int ->
  record list ->
  record list ->
  bool
(** [diff_request ... ref_records dut_records] classifies every pairwise
    difference (mis-skip via {!Skip.report_mis_skip}, lost skip onto
    [counters], otherwise [on_unclassified]) and returns whether the DUT's
    architectural state diverged and must be resynchronised. *)
