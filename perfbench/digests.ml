(* Simulated-output digests, one per benchmark operation.

   A digest is the MD5 of the decimal values it covers, so it depends
   only on simulated quantities, never on host time.  Fields are listed
   explicitly: a counter added to the library later does not change the
   digests committed for the existing ones.  Quantiles are left out on
   purpose, so that a more exact quantile estimator does not trip the
   check while every per-request outcome (the cell's lat_fingerprint)
   still does. *)

module Counters = Dlink_uarch.Counters
module Serve = Dlink_core.Serve
module Churn = Dlink_core.Churn
module Quantum_sweep = Dlink_sched.Quantum_sweep

let of_ints l =
  Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int l)))

let counters (c : Counters.t) =
  [
    c.instructions; c.cycles; c.icache_misses; c.dcache_misses; c.l2_misses;
    c.itlb_misses; c.dtlb_misses; c.branches; c.branch_mispredictions;
    c.btb_misses; c.tramp_instructions; c.tramp_calls; c.tramp_skips;
    c.abtb_hits; c.abtb_inserts; c.abtb_clears; c.abtb_false_clears;
    c.coherence_invalidations; c.got_stores; c.resolver_runs; c.mis_skips;
    c.lost_skips; c.quarantine_entries; c.timeout_degrades; c.fault_injected;
  ]

let serve_cell (c : Serve.cell) =
  of_ints ([ c.served; c.dropped; c.lat_fingerprint ] @ counters c.counters)

let churn_cell (c : Churn.cell) =
  of_ints
    ([ c.churn_events; c.opens; c.closes; c.rebinds; c.stable_hits;
       c.stable_misses ]
    @ counters c.counters)

(* A scheduler point carries the system counters the sweep reports. *)
let sched_point (p : Quantum_sweep.point) =
  of_ints
    [ p.cycles; p.instructions; p.abtb_clears; p.coherence_invalidations;
      p.switches ]
