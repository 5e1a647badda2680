(** Performance counters, the simulator's analogue of the paper's VTune
    measurements (Table 4) plus mechanism-specific telemetry. *)

type t = {
  mutable instructions : int;
  mutable cycles : int;
  mutable icache_misses : int;
  mutable dcache_misses : int;
  mutable l2_misses : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable branches : int;
  mutable branch_mispredictions : int;
  mutable btb_misses : int;  (** direct-branch target-buffer fill bubbles *)
  mutable tramp_instructions : int;  (** retired instructions inside a PLT *)
  mutable tramp_calls : int;  (** calls whose architectural target is a PLT entry *)
  mutable tramp_skips : int;  (** trampolines elided by the mechanism *)
  mutable abtb_hits : int;
  mutable abtb_inserts : int;
  mutable abtb_clears : int;
  mutable abtb_false_clears : int;
      (** clears triggered by Bloom false positives (store was not actually
          to a GOT slot backing a live entry) *)
  mutable coherence_invalidations : int;
      (** ABTB clears forced by GOT stores observed on the coherence bus
          from another core (multi-process runs only) *)
  mutable got_stores : int;
  mutable resolver_runs : int;
  mutable mis_skips : int;
      (** correctness violations detected by the oracle: a skip retired a
          stale function target (forbidden by the paper's Bloom-clear
          invariant; nonzero only under fault injection) *)
  mutable lost_skips : int;
      (** benign divergences: a previously-skippable trampoline executed
          architecturally (clear, eviction, quarantine, or injected fault)
          and reached the same function — performance-only *)
  mutable quarantine_entries : int;
      (** ABTB sets quarantined by the graceful-degradation fallback *)
  mutable timeout_degrades : int;
      (** whole-core degradations forced by a timed-out coherence
          invalidation: the skip unit flushed and fell back to the
          architectural path for a window of skip opportunities *)
  mutable fault_injected : int;
      (** fault-plan actions applied by the injection layer *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : after:t -> before:t -> t
(** Per-field subtraction: counters accumulated between two snapshots. *)

val add : into:t -> t -> unit
(** Per-field accumulation, used to attribute per-quantum deltas of a
    shared core counter to the process that ran the quantum. *)

val pki : t -> int -> float
(** [pki t count] = events per kilo-instruction of [t.instructions]. *)

val ipc_denominator : t -> int
(** Instructions, never zero (clamped to 1). *)

val pp : Format.formatter -> t -> unit
