open Dlink_isa
open Dlink_mach
open Dlink_uarch

type granularity = Slot | Page
type coherence = Bloom_guard | Explicit_invalidate

type config = {
  abtb_entries : int;
  abtb_ways : int option;
  bloom_bits : int;
  bloom_hashes : int;
  bloom_granularity : granularity;
  coherence : coherence;
  filter_fallthrough : bool;
  verify_targets : bool;
  quarantine_window : int;
  quarantine_on_verify : bool;
}

let default_config =
  {
    abtb_entries = 256;
    abtb_ways = None;
    bloom_bits = 4096;
    bloom_hashes = 2;
    bloom_granularity = Page;
    coherence = Bloom_guard;
    filter_fallthrough = true;
    verify_targets = false;
    quarantine_window = 64;
    quarantine_on_verify = false;
  }

(* Abtb.create and Bloom.create validate their own geometry; the remaining
   fields are checked here so a bad config fails at construction, not
   mid-run. *)
let validate_config cfg =
  if cfg.abtb_entries <= 0 then
    invalid_arg "Skip.create: abtb_entries must be positive";
  (match cfg.abtb_ways with
  | Some w when w <= 0 -> invalid_arg "Skip.create: abtb_ways must be positive"
  | _ -> ());
  if cfg.bloom_bits <= 0 || cfg.bloom_bits land (cfg.bloom_bits - 1) <> 0 then
    invalid_arg "Skip.create: bloom_bits must be a positive power of two";
  if cfg.bloom_hashes < 1 || cfg.bloom_hashes > 8 then
    invalid_arg "Skip.create: bloom_hashes must be in [1, 8]";
  if cfg.quarantine_window < 0 then
    invalid_arg "Skip.create: quarantine_window must be non-negative"

let bloom_key cfg a =
  match cfg.bloom_granularity with Slot -> a | Page -> Addr.page_of a

exception Misspeculation of string

type t = {
  cfg : config;
  abtb : Abtb.t;
  bloom : Bloom.t;
  counters : Counters.t;
  btb_update : Addr.t -> Addr.t -> unit;
  btb_predict : Addr.t -> Addr.t;
  on_stale_prediction : unit -> unit;
  read_got : Addr.t -> int;
  (* Exact shadow of GOT slots backing live-or-evicted entries since the
     last clear, keyed by (asid, slot); used only to classify Bloom hits as
     true or false. *)
  exact_slots : (int * Addr.t, unit) Hashtbl.t;
  (* Address spaces with live filter entries since the last clear; a remote
     invalidation must probe the filter under each of them. *)
  live_asids : (int, unit) Hashtbl.t;
  mutable asid : int;
  (* Half-observed call/jump idiom: pc and target of the last retired
     eligible call, or [Addr.none] when none is pending.  Two plain ints
     instead of an option pair keep the retire path allocation-free. *)
  mutable pending_pc : Addr.t;
  mutable pending_target : Addr.t;
  (* Graceful degradation: ABTB sets implicated in a detected mis-skip,
     mapped to the number of further skip opportunities to suppress.  Keyed
     by physical set index, so the window survives whole-table clears and
     context switches like the hardware state it models. *)
  quarantined : (int, int) Hashtbl.t;
  (* Fault-injection hook: when set, consulted before every filter-driven
     clear; returning [true] suppresses the clear (models a lost clear
     pulse).  Never set outside the fault harness. *)
  mutable clear_veto : (unit -> bool) option;
  (* Whole-core degradation after a timed-out coherence invalidation: the
     unit was flushed and skips stay suppressed for this many further
     opportunities (entry present and otherwise skippable), so the core
     runs architecturally until the window drains. *)
  mutable degraded : int;
}

let create ?(config = default_config) ~counters ~btb_update ~btb_predict
    ~on_stale_prediction ~read_got () =
  validate_config config;
  {
    cfg = config;
    abtb = Abtb.create ?ways:config.abtb_ways ~entries:config.abtb_entries ();
    bloom = Bloom.create ~bits:config.bloom_bits ~hashes:config.bloom_hashes;
    counters;
    btb_update;
    btb_predict;
    on_stale_prediction;
    read_got;
    exact_slots = Hashtbl.create 64;
    live_asids = Hashtbl.create 8;
    asid = 0;
    pending_pc = Addr.none;
    pending_target = Addr.none;
    quarantined = Hashtbl.create 8;
    clear_veto = None;
    degraded = 0;
  }

let abtb t = t.abtb
let bloom t = t.bloom
let asid t = t.asid
let set_clear_veto t f = t.clear_veto <- f
let quarantined_sets t = Hashtbl.length t.quarantined

let veto_clears t =
  match t.clear_veto with None -> false | Some f -> f ()

let report_mis_skip t ~tramp =
  let s = Abtb.set_index t.abtb tramp in
  Abtb.clear_set t.abtb s;
  if t.cfg.quarantine_window > 0 && not (Hashtbl.mem t.quarantined s) then begin
    Hashtbl.replace t.quarantined s t.cfg.quarantine_window;
    t.counters.Counters.quarantine_entries <-
      t.counters.Counters.quarantine_entries + 1
  end;
  t.counters.Counters.mis_skips <- t.counters.Counters.mis_skips + 1

(* A quarantined set falls back to architectural (trampoline) execution;
   each suppressed skip opportunity shortens the sentence.  Inserts into the
   set remain allowed, so service resumes with warm entries on release. *)
let quarantine_blocks t tramp =
  Hashtbl.length t.quarantined > 0
  &&
  let s = Abtb.set_index t.abtb tramp in
  match Hashtbl.find_opt t.quarantined s with
  | None -> false
  | Some n ->
      if n <= 1 then Hashtbl.remove t.quarantined s
      else Hashtbl.replace t.quarantined s (n - 1);
      true

let set_asid t asid =
  t.asid <- asid;
  (* The idiom window never spans a context switch. *)
  t.pending_pc <- Addr.none

let degraded_remaining t = t.degraded

let flush t =
  Abtb.clear t.abtb;
  Bloom.clear t.bloom;
  (* [Hashtbl.clear], not [reset]: clears happen on every guarded GOT
     store, and [reset] would reallocate the bucket array each time. *)
  Hashtbl.clear t.exact_slots;
  Hashtbl.clear t.live_asids;
  t.pending_pc <- Addr.none

(* Graceful degradation after a timed-out coherence invalidation: this
   core never saw the message, so nothing it cached about guarded GOT
   state can be trusted.  Flush everything and suppress skips for a
   window of opportunities — the resolver path is always correct. *)
let degrade t ~window =
  if window <= 0 then invalid_arg "Skip.degrade: window must be positive";
  flush t;
  if t.degraded = 0 then
    t.counters.Counters.timeout_degrades <-
      t.counters.Counters.timeout_degrades + 1;
  t.degraded <- max t.degraded window

let record_clear t ~addr ~asid =
  t.counters.Counters.abtb_clears <- t.counters.Counters.abtb_clears + 1;
  if not (Hashtbl.mem t.exact_slots (asid, addr)) then
    t.counters.Counters.abtb_false_clears <-
      t.counters.Counters.abtb_false_clears + 1;
  flush t

let clear_on_store t addr =
  if
    t.cfg.coherence = Bloom_guard
    && Bloom.mem ~asid:t.asid t.bloom (bloom_key t.cfg addr)
    && not (veto_clears t)
  then record_clear t ~addr ~asid:t.asid

let on_remote_store t addr =
  (* A store retired by another core: the local filter is probed under every
     address space with live entries — the slot may guard any of them. *)
  let key = bloom_key t.cfg addr in
  let hit_asid =
    Hashtbl.fold
      (fun a () acc ->
        match acc with
        | Some _ -> acc
        | None -> if Bloom.mem ~asid:a t.bloom key then Some a else None)
      t.live_asids None
  in
  match hit_asid with
  | None -> ()
  | Some a ->
      if not (veto_clears t) then begin
        t.counters.Counters.coherence_invalidations <-
          t.counters.Counters.coherence_invalidations + 1;
        record_clear t ~addr ~asid:a
      end

(* The front end redirects through the BTB only (the hardware is an
   unmodified fetch pipeline); the ABTB confirms or corrects at resolution:
   - BTB holds the function address and the ABTB agrees: clean skip.
   - BTB holds something else while the ABTB knows the function: resolution
     corrects to the function address; the trampoline is still skipped but
     at mispredict cost (charged by the engine, which sees a redirected
     call whose BTB entry mismatches).
   - BTB miss: decode supplies the architectural target; the trampoline
     executes and pair-retire retrains the entry.  No extra mispredict.
   - BTB stale (function address) with no ABTB entry: the fetch went to the
     stale target and must be squashed — an enhanced-only mispredict,
     reported through [on_stale_prediction]. *)
let on_fetch_call t ~pc ~arch_target =
  let predicted = t.btb_predict pc in
  let entry = Abtb.lookup_default ~asid:t.asid t.abtb arch_target in
  if entry == Abtb.no_entry then begin
    if predicted <> Addr.none && predicted <> arch_target then
      t.on_stale_prediction ();
    arch_target
  end
  else if t.degraded > 0 then begin
    (* Whole-core degradation after a coherence timeout: the entry (warm
       again after the flush) is ignored and the trampoline executes
       architecturally until the window drains.  Each suppressed skip
       opportunity shortens the sentence. *)
    t.degraded <- t.degraded - 1;
    if predicted <> Addr.none && predicted <> arch_target then
      t.on_stale_prediction ();
    arch_target
  end
  else if quarantine_blocks t arch_target then begin
    (* Set under quarantine after a detected mis-skip: ignore the entry
       and take the architectural path.  The front end may still have
       redirected on the stale BTB entry, so charge the squash. *)
    if predicted <> Addr.none && predicted <> arch_target then
      t.on_stale_prediction ();
    arch_target
  end
  else if predicted = Addr.none then
    arch_target (* no redirection source: architectural path *)
  else begin
    let { Abtb.func; got_slot } = entry in
    let stale = t.cfg.verify_targets && t.read_got got_slot <> func in
    if stale then
      if t.cfg.quarantine_on_verify then begin
        (* Degrade instead of dying: treat the detected staleness as a
           mis-skip caught at resolution — squash, quarantine the set, and
           execute the trampoline architecturally. *)
        report_mis_skip t ~tramp:arch_target;
        t.on_stale_prediction ();
        arch_target
      end
      else
        raise
          (Misspeculation
             (Printf.sprintf "ABTB maps %s to %s but GOT slot %s holds %s"
                (Addr.to_hex arch_target) (Addr.to_hex func)
                (Addr.to_hex got_slot)
                (Addr.to_hex (t.read_got got_slot))))
    else begin
      t.counters.Counters.abtb_hits <- t.counters.Counters.abtb_hits + 1;
      t.counters.Counters.tramp_skips <- t.counters.Counters.tramp_skips + 1;
      func
    end
  end

let on_retire_packed t ~pc ~size ~store ~kind ~target ~aux =
  (* Coherence watch: any retired store that hits the filter clears all. *)
  if store >= 0 then clear_on_store t store;
  (* Idiom detection: call retired, next retired instruction is a
     memory-indirect jump ([aux] carries its GOT slot). *)
  if t.pending_pc <> Addr.none && kind = Event.Kind.jump_indirect then begin
    let fallthrough = pc + size in
    if not (t.cfg.filter_fallthrough && target = fallthrough) then begin
      Abtb.insert t.abtb ~asid:t.asid t.pending_target
        { Abtb.func = target; got_slot = aux };
      Bloom.add ~asid:t.asid t.bloom (bloom_key t.cfg aux);
      Hashtbl.replace t.exact_slots (t.asid, aux) ();
      Hashtbl.replace t.live_asids t.asid ();
      t.counters.Counters.abtb_inserts <- t.counters.Counters.abtb_inserts + 1;
      (* Retrain the call site so the very next fetch goes straight to
         the function (§3.2, front-end update rule). *)
      t.btb_update t.pending_pc target
    end
  end;
  (* Only unredirected direct calls (target = architectural target) can be
     followed by a trampoline; indirect calls always qualify. *)
  if
    (kind = Event.Kind.call_direct && target = aux)
    || kind = Event.Kind.call_indirect
  then begin
    t.pending_pc <- pc;
    t.pending_target <- target
  end
  else t.pending_pc <- Addr.none

let on_retire t (ev : Event.t) =
  let store = match ev.store with Some a -> a | None -> Addr.none in
  let kind, target, aux, _taken = Event.pack_branch ev.branch in
  on_retire_packed t ~pc:ev.pc ~size:ev.size ~store ~kind ~target ~aux
