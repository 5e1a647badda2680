(** Event-driven microarchitecture accounting.

    Consumes the retire stream and charges each instruction its fetch,
    data, and branch costs against the modeled structures.  This mirrors
    the paper's methodology, which observes performance-counter deltas on
    real hardware rather than simulating a cycle-accurate pipeline: the
    first-order quantities (misses, mispredictions, retired instructions)
    and a penalty-weighted cycle count are what the evaluation reports.

    Branch accounting rules:
    - conditional branches consult the gshare predictor (full mispredict
      penalty when wrong) and the BTB for the taken target (fill bubble);
    - direct calls/jumps suffer only a BTB fill bubble on a miss (decode
      recomputes the target) — unless the call was redirected by the
      trampoline-skip mechanism, in which case a stale BTB is a genuine
      mispredict because decode's target is also wrong;
    - indirect branches mispredict whenever the BTB target differs;
    - returns are predicted by the return address stack. *)

open Dlink_isa
open Dlink_mach

type t

val create : Config.t -> t
val config : t -> Config.t
val counters : t -> Counters.t
val retire : t -> Event.t -> unit
(** Charge one retired instruction.  Allocation-free; the event is not
    kept past the call. *)

val btb_update : t -> Addr.t -> Addr.t -> unit
(** External BTB training: the skip controller uses this to retarget a
    library call's BTB entry at pair-retire time (§3.2 "populating"). *)

val btb_predict : t -> Addr.t -> Addr.t option

val btb_predict_raw : t -> Addr.t -> Addr.t
(** Allocation-free {!btb_predict}: {!Addr.none} on a miss. *)

val asid : t -> int
val set_asid : t -> int -> unit
(** Address-space id tagging TLB fills and lookups (default 0).  Set by the
    multi-process scheduler when it dispatches a different process. *)

val context_switch :
  ?flush_predictors:bool -> ?flush_caches:bool -> ?retain_asid:bool -> t -> unit
(** The RAS always flushes.  TLBs flush unless [retain_asid] (tagged
    entries from other address spaces cannot hit, so retention is safe);
    predictors and caches flush optionally (physically-tagged caches
    survive a switch on real hardware). *)

val icache : t -> Cache.t
val dcache : t -> Cache.t
val l2 : t -> Cache.t
val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t
