open Dlink_isa
open Dlink_mach

type t = {
  cfg : Config.t;
  ic : Cache.t;
  dc : Cache.t;
  l2c : Cache.t;
  it : Tlb.t;
  dt : Tlb.t;
  btb : Btb.t;
  dir : Direction.t;
  ras : Ras.t;
  c : Counters.t;
  mutable asid : int; (* tag applied to TLB fills/lookups; 0 = untagged *)
}

let create (cfg : Config.t) =
  {
    cfg;
    ic = Cache.create ~name:"L1I" ~size_bytes:cfg.l1i.size_bytes ~ways:cfg.l1i.ways;
    dc = Cache.create ~name:"L1D" ~size_bytes:cfg.l1d.size_bytes ~ways:cfg.l1d.ways;
    l2c = Cache.create ~name:"L2" ~size_bytes:cfg.l2.size_bytes ~ways:cfg.l2.ways;
    it = Tlb.create ~name:"ITLB" ~entries:cfg.itlb.entries ~ways:cfg.itlb.ways;
    dt = Tlb.create ~name:"DTLB" ~entries:cfg.dtlb.entries ~ways:cfg.dtlb.ways;
    btb = Btb.create ~sets:cfg.btb_sets ~ways:cfg.btb_ways;
    dir =
      Direction.create ~table_bits:cfg.gshare_table_bits
        ~history_bits:cfg.gshare_history_bits;
    ras = Ras.create ~depth:cfg.ras_depth;
    c = Counters.create ();
    asid = 0;
  }

let config t = t.cfg
let counters t = t.c
let asid t = t.asid
let set_asid t asid = t.asid <- asid
let icache t = t.ic
let dcache t = t.dc
let l2 t = t.l2c
let itlb t = t.it
let dtlb t = t.dt
let btb_update t pc target = Btb.update t.btb pc target
let btb_predict t pc = Btb.predict t.btb pc
let btb_predict_raw t pc = Btb.predict_default t.btb pc

(* An access that misses L1 is charged the L2 hit latency, or the memory
   latency when it misses L2 as well. *)
let miss_cost t addr ~l2_counts =
  if Cache.access t.l2c addr then t.cfg.penalties.l1_miss
  else begin
    if l2_counts then t.c.l2_misses <- t.c.l2_misses + 1;
    t.cfg.penalties.l2_miss
  end

let ifetch t pc =
  let cycles =
    if Tlb.access ~asid:t.asid t.it pc then 0
    else begin
      t.c.itlb_misses <- t.c.itlb_misses + 1;
      t.cfg.penalties.tlb_miss
    end
  in
  if Cache.access t.ic pc then cycles
  else begin
    t.c.icache_misses <- t.c.icache_misses + 1;
    cycles + miss_cost t pc ~l2_counts:true
  end

let data_access t addr =
  let cycles =
    if Tlb.access ~asid:t.asid t.dt addr then 0
    else begin
      t.c.dtlb_misses <- t.c.dtlb_misses + 1;
      t.cfg.penalties.tlb_miss
    end
  in
  if Cache.access t.dc addr then cycles
  else begin
    t.c.dcache_misses <- t.c.dcache_misses + 1;
    cycles + miss_cost t addr ~l2_counts:true
  end

let direct_target t ~pc ~target =
  (* Decode recomputes direct targets, so a BTB miss is only a fill bubble. *)
  if Btb.predict_default t.btb pc = target then 0
  else begin
    t.c.btb_misses <- t.c.btb_misses + 1;
    Btb.update t.btb pc target;
    t.cfg.penalties.btb_fill
  end

let indirect_target t ~pc ~target =
  let cost =
    if Btb.predict_default t.btb pc = target then 0
    else begin
      t.c.branch_mispredictions <- t.c.branch_mispredictions + 1;
      t.cfg.penalties.mispredict
    end
  in
  Btb.update t.btb pc target;
  cost

(* Branch accounting on packed operands.  [aux] is the architectural target
   of a direct call (equal to [target] when unredirected) or the GOT slot
   of an indirect branch; it is ignored for the other kinds. *)
let branch_cost_packed t ~pc ~size ~kind ~target ~aux ~taken =
  t.c.branches <- t.c.branches + 1;
  if kind = Event.Kind.cond_branch then begin
    let predicted = Direction.predict t.dir pc in
    Direction.update t.dir pc taken;
    let dir_cost =
      if predicted <> taken then begin
        t.c.branch_mispredictions <- t.c.branch_mispredictions + 1;
        t.cfg.penalties.mispredict
      end
      else 0
    in
    let target_cost = if taken then direct_target t ~pc ~target else 0 in
    dir_cost + target_cost
  end
  else if kind = Event.Kind.call_direct then begin
    Ras.push t.ras (pc + size);
    if target = aux then direct_target t ~pc ~target
    else
      (* Redirected (trampoline-skipped) call: the BTB is the only source
         of the function address, so a stale entry is a real mispredict
         corrected by the ABTB at resolution. *)
      indirect_target t ~pc ~target
  end
  else if kind = Event.Kind.jump_direct then direct_target t ~pc ~target
  else if kind = Event.Kind.call_indirect then begin
    Ras.push t.ras (pc + size);
    indirect_target t ~pc ~target
  end
  else if kind = Event.Kind.jump_indirect || kind = Event.Kind.jump_resolver then
    indirect_target t ~pc ~target
  else begin
    (* Return: predicted by the RAS.  Pushed addresses are non-negative, so
       the empty-stack sentinel can never equal [target]. *)
    if Ras.pop_default t.ras = target then 0
    else begin
      t.c.branch_mispredictions <- t.c.branch_mispredictions + 1;
      t.cfg.penalties.mispredict
    end
  end

let retire_packed t ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux
    ~taken =
  t.c.instructions <- t.c.instructions + 1;
  if in_plt then t.c.tramp_instructions <- t.c.tramp_instructions + 1;
  let cycles = 1 + ifetch t pc in
  let cycles = if load >= 0 then cycles + data_access t load else cycles in
  let cycles = if load2 >= 0 then cycles + data_access t load2 else cycles in
  let cycles = if store >= 0 then cycles + data_access t store else cycles in
  let cycles =
    if kind <> Event.Kind.none then
      cycles + branch_cost_packed t ~pc ~size ~kind ~target ~aux ~taken
    else cycles
  in
  t.c.cycles <- t.c.cycles + cycles

let retire t (ev : Event.t) =
  let load = match ev.load with Some a -> a | None -> Addr.none in
  let load2 = match ev.load2 with Some a -> a | None -> Addr.none in
  let store = match ev.store with Some a -> a | None -> Addr.none in
  let kind, target, aux, taken = Event.pack_branch ev.branch in
  retire_packed t ~pc:ev.pc ~size:ev.size ~in_plt:ev.in_plt ~load ~load2 ~store
    ~kind ~target ~aux ~taken

let context_switch ?(flush_predictors = false) ?(flush_caches = false)
    ?(retain_asid = false) t =
  (* ASID-tagged TLBs survive the switch: stale entries belong to other
     tags and can never hit, so nothing needs flushing. *)
  if not retain_asid then begin
    Tlb.flush t.it;
    Tlb.flush t.dt
  end;
  Ras.flush t.ras;
  if flush_predictors then begin
    Btb.flush t.btb;
    Direction.flush t.dir
  end;
  if flush_caches then begin
    Cache.flush t.ic;
    Cache.flush t.dc;
    Cache.flush t.l2c
  end
