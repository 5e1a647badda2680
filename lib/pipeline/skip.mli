(** The trampoline-skip controller: ABTB + Bloom filter + retire-time
    population logic (paper §3).

    Front end: {!on_fetch_call} is consulted on every direct call.  If the
    call's architectural target has a live ABTB entry, fetch is redirected
    straight to the library function and the trampoline never executes.

    Back end: {!on_retire} watches the retire stream for
    - stores that hit the Bloom filter → clear the ABTB and filter;
    - the call-followed-by-memory-indirect-branch idiom → insert an ABTB
      entry mapping trampoline → function, add the GOT slot to the filter,
      and retrain the call site's BTB entry with the function address.

    The [filter_fallthrough] refinement suppresses population when the
    indirect branch lands on its own fall-through address, which is exactly
    the lazy-resolution first execution (the GOT still points at the PLT
    stub's push).  Without it the mechanism still behaves correctly — the
    resolver's GOT store hits the filter and clears the table, the paper's
    "happens only once per library call" startup transient — at the cost of
    one extra whole-table clear per first call.  Both variants are
    measured by the ablation bench. *)

open Dlink_isa
open Dlink_mach
open Dlink_uarch

(** What the Bloom filter hashes.  The paper stores "the addresses of the
    GOT entries" (slot granularity) but never sizes the filter; at slot
    granularity every architectural store is a membership test, and with
    realistic store rates even sub-percent false-positive rates cause
    constant whole-ABTB clears.  Page granularity exploits the fact that
    GOT slots live on dedicated pages: the filter holds a handful of page
    numbers, so a few hundred bits suffice.  The ablation bench quantifies
    both. *)
type granularity = Slot | Page

(** How ABTB coherence is maintained (§3.2 vs §3.4).

    [Bloom_guard] is the paper's primary design: retired stores are tested
    against a Bloom filter of guarded GOT locations and a hit clears the
    table — fully transparent to software.

    [Explicit_invalidate] is the paper's alternate implementation: no
    filter hardware at all; software (the dynamic loader) must execute an
    explicit ABTB-invalidate operation ({!flush}) whenever it rewrites a
    GOT entry, analogous to instruction-cache flushes on non-coherent
    architectures.  With [verify_targets] set, forgetting the flush after
    a rebinding raises {!Misspeculation} — demonstrating exactly why the
    transparent design needs the filter. *)
type coherence = Bloom_guard | Explicit_invalidate

type config = {
  abtb_entries : int;
  abtb_ways : int option;  (** [None] = fully associative *)
  bloom_bits : int;
  bloom_hashes : int;
  bloom_granularity : granularity;
  coherence : coherence;
  filter_fallthrough : bool;
  verify_targets : bool;
      (** paranoia mode for tests: on every skip, check the redirect target
          against the live GOT contents and raise on mismatch *)
  quarantine_window : int;
      (** graceful degradation: after a detected mis-skip the offending
          ABTB set is evicted and skips from it suppressed for this many
          subsequent opportunities (0 disables quarantine) *)
  quarantine_on_verify : bool;
      (** when [verify_targets] catches a stale skip, quarantine and fall
          back to the trampoline instead of raising {!Misspeculation} *)
}

val default_config : config
(** [quarantine_window = 64], [quarantine_on_verify = false]; see the
    field docs for the rest.  {!create} validates the configuration
    ([bloom_bits] a positive power of two, [bloom_hashes] in [1, 8],
    positive table geometry, non-negative window) and raises
    [Invalid_argument] otherwise. *)

type t

val create :
  ?config:config ->
  counters:Counters.t ->
  btb_update:(Addr.t -> Addr.t -> unit) ->
  btb_predict:(Addr.t -> Addr.t) ->
  on_stale_prediction:(unit -> unit) ->
  read_got:(Addr.t -> int) ->
  unit ->
  t
(** [btb_predict] is the front end's only redirection source: a trampoline
    is skipped when the call site's BTB entry holds the function address
    (trained at pair-retire) {e and} the ABTB confirms it at resolution.
    It returns {!Dlink_isa.Addr.none} on a BTB miss (sentinel rather than
    an option, keeping the per-call fetch path allocation-free).
    [on_stale_prediction] is invoked when the BTB still holds a function
    address but the ABTB entry is gone (cleared/evicted) — in hardware the
    front end fetched the stale target and resolution must squash, a
    mispredict the base machine does not have.  Rare in steady state. *)

val on_fetch_call : t -> pc:Addr.t -> arch_target:Addr.t -> Addr.t
(** Front-end consultation on every direct call: returns the fetch target
    (the library function when skipping, the architectural target
    otherwise). *)

val on_retire : t -> Event.t -> unit
(** Observe one retired instruction: a store that hits the Bloom filter
    clears the ABTB, and a retired call followed by a retired
    memory-indirect jump ([aux] = its GOT slot) inserts an ABTB entry.
    Allocation-free except on those bookkeeping paths. *)

val on_remote_store : t -> Addr.t -> unit
(** A GOT store retired by {e another} core, delivered over the
    {!Dlink_mach.Coherence} bus: the filter is probed under every address
    space with live entries, and a hit clears the table exactly like a
    local store would, additionally counting a coherence invalidation. *)

val flush : t -> unit
(** Context switch / explicit software invalidation (§3.4). *)

val asid : t -> int
val set_asid : t -> int -> unit
(** The address-space id tagging subsequent ABTB/Bloom traffic (default 0).
    Setting it also abandons any half-observed call/jump idiom — the pair
    window never spans a context switch. *)

val abtb : t -> Abtb.t
val bloom : t -> Bloom.t

val report_mis_skip : t -> tramp:Addr.t -> unit
(** Told by an external oracle that a skip of [tramp] retired a stale
    target: evict the ABTB set [tramp] maps to, place it under quarantine
    for [quarantine_window] skip opportunities (architectural fallback),
    and bump the [mis_skips] / [quarantine_entries] counters. *)

val quarantined_sets : t -> int
(** Sets currently serving a quarantine sentence. *)

val degrade : t -> window:int -> unit
(** Whole-core graceful degradation, the response to a timed-out
    coherence invalidation ({!Dlink_mach.Coherence.set_on_timeout}): this
    core never saw an invalidation it was owed, so {!flush} everything
    and suppress the next [window] skip opportunities — the trampoline /
    resolver path is always architecturally correct.  Extends (never
    shortens) an existing window; bumps [timeout_degrades] when arming a
    fresh one.  Raises [Invalid_argument] if [window <= 0]. *)

val degraded_remaining : t -> int
(** Skip opportunities still to be suppressed by {!degrade} (0 = healthy). *)

val set_clear_veto : t -> (unit -> bool) option -> unit
(** Fault-injection hook: when the callback returns [true], a
    filter-driven clear (local or remote) is suppressed — the fault model
    for a lost clear pulse.  [None] (the default) restores normal
    behaviour.  Not used by the mechanism itself. *)

exception Misspeculation of string
(** Raised only under [verify_targets] if a skip would diverge from the
    architectural GOT state — this never fires when the Bloom-clear
    invariant holds. *)
