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
  mutable btb_misses : int;
  mutable tramp_instructions : int;
  mutable tramp_calls : int;
  mutable tramp_skips : int;
  mutable abtb_hits : int;
  mutable abtb_inserts : int;
  mutable abtb_clears : int;
  mutable abtb_false_clears : int;
  mutable coherence_invalidations : int;
  mutable got_stores : int;
  mutable resolver_runs : int;
  mutable mis_skips : int;
  mutable lost_skips : int;
  mutable quarantine_entries : int;
  mutable timeout_degrades : int;
  mutable fault_injected : int;
}

let create () =
  {
    instructions = 0;
    cycles = 0;
    icache_misses = 0;
    dcache_misses = 0;
    l2_misses = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    branches = 0;
    branch_mispredictions = 0;
    btb_misses = 0;
    tramp_instructions = 0;
    tramp_calls = 0;
    tramp_skips = 0;
    abtb_hits = 0;
    abtb_inserts = 0;
    abtb_clears = 0;
    abtb_false_clears = 0;
    coherence_invalidations = 0;
    got_stores = 0;
    resolver_runs = 0;
    mis_skips = 0;
    lost_skips = 0;
    quarantine_entries = 0;
    timeout_degrades = 0;
    fault_injected = 0;
  }

let reset t =
  t.instructions <- 0;
  t.cycles <- 0;
  t.icache_misses <- 0;
  t.dcache_misses <- 0;
  t.l2_misses <- 0;
  t.itlb_misses <- 0;
  t.dtlb_misses <- 0;
  t.branches <- 0;
  t.branch_mispredictions <- 0;
  t.btb_misses <- 0;
  t.tramp_instructions <- 0;
  t.tramp_calls <- 0;
  t.tramp_skips <- 0;
  t.abtb_hits <- 0;
  t.abtb_inserts <- 0;
  t.abtb_clears <- 0;
  t.abtb_false_clears <- 0;
  t.coherence_invalidations <- 0;
  t.got_stores <- 0;
  t.resolver_runs <- 0;
  t.mis_skips <- 0;
  t.lost_skips <- 0;
  t.quarantine_entries <- 0;
  t.timeout_degrades <- 0;
  t.fault_injected <- 0

let copy t = { t with instructions = t.instructions }

let diff ~after ~before =
  {
    instructions = after.instructions - before.instructions;
    cycles = after.cycles - before.cycles;
    icache_misses = after.icache_misses - before.icache_misses;
    dcache_misses = after.dcache_misses - before.dcache_misses;
    l2_misses = after.l2_misses - before.l2_misses;
    itlb_misses = after.itlb_misses - before.itlb_misses;
    dtlb_misses = after.dtlb_misses - before.dtlb_misses;
    branches = after.branches - before.branches;
    branch_mispredictions = after.branch_mispredictions - before.branch_mispredictions;
    btb_misses = after.btb_misses - before.btb_misses;
    tramp_instructions = after.tramp_instructions - before.tramp_instructions;
    tramp_calls = after.tramp_calls - before.tramp_calls;
    tramp_skips = after.tramp_skips - before.tramp_skips;
    abtb_hits = after.abtb_hits - before.abtb_hits;
    abtb_inserts = after.abtb_inserts - before.abtb_inserts;
    abtb_clears = after.abtb_clears - before.abtb_clears;
    abtb_false_clears = after.abtb_false_clears - before.abtb_false_clears;
    coherence_invalidations =
      after.coherence_invalidations - before.coherence_invalidations;
    got_stores = after.got_stores - before.got_stores;
    resolver_runs = after.resolver_runs - before.resolver_runs;
    mis_skips = after.mis_skips - before.mis_skips;
    lost_skips = after.lost_skips - before.lost_skips;
    quarantine_entries = after.quarantine_entries - before.quarantine_entries;
    timeout_degrades = after.timeout_degrades - before.timeout_degrades;
    fault_injected = after.fault_injected - before.fault_injected;
  }

let add ~into t =
  into.instructions <- into.instructions + t.instructions;
  into.cycles <- into.cycles + t.cycles;
  into.icache_misses <- into.icache_misses + t.icache_misses;
  into.dcache_misses <- into.dcache_misses + t.dcache_misses;
  into.l2_misses <- into.l2_misses + t.l2_misses;
  into.itlb_misses <- into.itlb_misses + t.itlb_misses;
  into.dtlb_misses <- into.dtlb_misses + t.dtlb_misses;
  into.branches <- into.branches + t.branches;
  into.branch_mispredictions <- into.branch_mispredictions + t.branch_mispredictions;
  into.btb_misses <- into.btb_misses + t.btb_misses;
  into.tramp_instructions <- into.tramp_instructions + t.tramp_instructions;
  into.tramp_calls <- into.tramp_calls + t.tramp_calls;
  into.tramp_skips <- into.tramp_skips + t.tramp_skips;
  into.abtb_hits <- into.abtb_hits + t.abtb_hits;
  into.abtb_inserts <- into.abtb_inserts + t.abtb_inserts;
  into.abtb_clears <- into.abtb_clears + t.abtb_clears;
  into.abtb_false_clears <- into.abtb_false_clears + t.abtb_false_clears;
  into.coherence_invalidations <-
    into.coherence_invalidations + t.coherence_invalidations;
  into.got_stores <- into.got_stores + t.got_stores;
  into.resolver_runs <- into.resolver_runs + t.resolver_runs;
  into.mis_skips <- into.mis_skips + t.mis_skips;
  into.lost_skips <- into.lost_skips + t.lost_skips;
  into.quarantine_entries <- into.quarantine_entries + t.quarantine_entries;
  into.timeout_degrades <- into.timeout_degrades + t.timeout_degrades;
  into.fault_injected <- into.fault_injected + t.fault_injected

let ipc_denominator t = max 1 t.instructions

let pki t count = 1000.0 *. float_of_int count /. float_of_int (ipc_denominator t)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>instructions        %d@,\
     cycles              %d@,\
     icache misses       %d@,\
     dcache misses       %d@,\
     l2 misses           %d@,\
     itlb misses         %d@,\
     dtlb misses         %d@,\
     branches            %d@,\
     mispredictions      %d@,\
     btb misses          %d@,\
     tramp instructions  %d@,\
     tramp calls         %d@,\
     tramp skips         %d@,\
     abtb hits           %d@,\
     abtb inserts        %d@,\
     abtb clears         %d@,\
     abtb false clears   %d@,\
     coherence invals    %d@,\
     got stores          %d@,\
     resolver runs       %d@,\
     mis skips           %d@,\
     lost skips          %d@,\
     quarantined sets    %d@,\
     timeout degrades    %d@,\
     faults injected     %d@]"
    t.instructions t.cycles t.icache_misses t.dcache_misses t.l2_misses
    t.itlb_misses t.dtlb_misses t.branches t.branch_mispredictions t.btb_misses
    t.tramp_instructions t.tramp_calls t.tramp_skips t.abtb_hits t.abtb_inserts
    t.abtb_clears t.abtb_false_clears t.coherence_invalidations t.got_stores
    t.resolver_runs t.mis_skips t.lost_skips t.quarantine_entries
    t.timeout_degrades t.fault_injected
