open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Rng = Dlink_util.Rng
module Skip = Dlink_pipeline.Skip
module Kernel = Dlink_pipeline.Kernel
module Policy = Dlink_pipeline.Policy
module Churn = Dlink_core.Churn

type report = {
  ops : int;
  churn_events : int;
  mis_skips : int;
  lost_skips : int;
  unclassified : int;
  skips : int;
  resolver_runs : int;
  faults_injected : int;
  stable_hits : int;
  stable_misses : int;
  counters : Counters.t;
  divergences : Oracle.divergence list;
}

let max_recorded_divergences = 32

(* Differential churn run: reference (no skip hardware) and DUT (Enhanced
   pipeline) share one loader and one dynamic loader; every dynload store
   is applied to both memories and retired through the DUT kernel only —
   the reference has no microarchitecture to inform.  The request loop
   interleaves plugin calls with dlopen/dlclose rotation, with the plan's
   churn actions realised around the closes. *)
let run ?(ucfg = Config.xeon_e5450) ?skip_cfg ?plan ~link_mode ~rate ~ops ~seed
    (s : Churn.scenario) =
  let plan = Option.value plan ~default:(Plan.empty 0) in
  let opts =
    {
      Loader.default_options with
      mode = link_mode;
      func_align = s.Churn.func_align;
      ld_preload = s.Churn.preload;
    }
  in
  let linked = Loader.load_exn ~opts s.Churn.base_objs in
  let ld_so =
    match Space.image_by_name linked.Loader.space Loader.ld_so_name with
    | Some img -> img
    | None -> invalid_arg "Churn_oracle.run: no dynamic-linker image"
  in
  let in_ld_so pc = Image.contains ld_so pc in

  (* Reference machine: pure architectural interpreter. *)
  let ref_col = Oracle.make_collector () in
  let ref_hooks =
    {
      Process.on_fetch_call = (fun ~pc:_ ~arch_target -> arch_target);
      on_retire =
        (fun ev -> Oracle.collector_on_retire ~in_ld_so ref_col ev);
    }
  in
  let ref_p = Process.create ~hooks:ref_hooks linked in

  (* Device under test: the Enhanced pipeline kernel. *)
  let kernel = Kernel.create ~ucfg ?skip_cfg ~with_skip:true () in
  let counters = Kernel.counters kernel in
  let skip = Option.get (Kernel.skip kernel) in
  let dut_col = Oracle.make_collector () in
  Kernel.set_tap kernel
    (Some
       (fun ev -> Oracle.collector_on_retire ~in_ld_so dut_col ev));
  let dut_p = Process.create ~hooks:(Kernel.process_hooks kernel) linked in
  Kernel.set_read_got kernel (fun slot ->
      Memory.read (Process.memory dut_p) slot);

  (* One dynamic loader serves both machines: stores land in both
     memories (architecturally shared address space) but retire through
     the DUT kernel only. *)
  let store a v =
    Memory.write (Process.memory ref_p) a v;
    Memory.write (Process.memory dut_p) a v;
    Kernel.retire_store kernel ~pc:linked.Loader.resolver_entry
      ~got_store:(Loader.in_any_got linked a) a
  in
  let dynload =
    Dynload.create ~store ~read:(Memory.read (Process.memory dut_p)) linked
  in

  (* Got_rewrite keeps its meaning from the static oracle: rebind the GOT
     slot behind a live ABTB entry in both memories, bypassing retire. *)
  let rewrite rng =
    let live = ref [] in
    Abtb.iter (fun _tramp e -> live := e :: !live) (Skip.abtb skip);
    let live = Array.of_list (List.rev !live) in
    let pool =
      Array.of_list
        (List.filter_map
           (fun sym -> Linkmap.lookup_addr linked.Loader.linkmap sym)
           (Linkmap.symbols linked.Loader.linkmap))
    in
    if Array.length live = 0 || Array.length pool < 2 then false
    else begin
      let e = live.(Rng.int rng (Array.length live)) in
      let cands =
        Array.to_list pool |> List.filter (fun a -> a <> e.Abtb.func)
      in
      match cands with
      | [] -> false
      | _ ->
          let target = List.nth cands (Rng.int rng (List.length cands)) in
          Memory.write (Process.memory ref_p) e.Abtb.got_slot target;
          Memory.write (Process.memory dut_p) e.Abtb.got_slot target;
          true
    end
  in
  let inject = Inject.create ~rewrite ~skip ~counters ~plan () in

  (* Rotation state, as in {!Dlink_core.Churn.run_cell}. *)
  let n = Array.length s.Churn.plugins in
  let resident = max 1 (min s.Churn.n_resident n) in
  let rng = Rng.create seed in
  let slots = Array.init resident (fun i -> i) in
  let parked = Queue.create () in
  for i = resident to n - 1 do
    Queue.add i parked
  done;
  let handles =
    Array.map (fun i -> Dynload.dlopen dynload s.Churn.plugins.(i)) slots
  in
  let churn_events = ref 0 in
  let close_handle h =
    (* The plan's churn hazards are realised here: a Stale_unload close
       applies its invalidation stores with every resulting ABTB clear
       vetoed; an Unload_inflight close defers them past the unmap. *)
    if Inject.take_stale_unload inject then begin
      Inject.begin_unbounded_suppress inject;
      Dynload.dlclose dynload h;
      Inject.end_unbounded_suppress inject
    end
    else if Inject.take_unload_inflight inject then
      Dynload.dlclose ~defer_invalidate:true dynload h
    else Dynload.dlclose dynload h
  in
  let churn () =
    if n > resident then begin
      let k = Rng.int rng resident in
      close_handle handles.(k);
      Queue.add slots.(k) parked;
      let inc = Queue.take parked in
      slots.(k) <- inc;
      handles.(k) <- Dynload.dlopen dynload s.Churn.plugins.(inc);
      incr churn_events
    end
    else begin
      close_handle handles.(0);
      handles.(0) <- Dynload.dlopen dynload s.Churn.plugins.(slots.(0));
      incr churn_events
    end
  in

  let unclassified = ref 0 in
  let divergences = ref [] in
  let n_div = ref 0 in
  let ever_skipped = Hashtbl.create 64 in
  let record_div d =
    if !n_div < max_recorded_divergences then begin
      divergences := d :: !divergences;
      incr n_div
    end
  in

  let run_op r =
    Inject.on_request inject r;
    (* Deferred invalidations from an Unload_inflight close land at the
       next op boundary — after the freed range may have been reused. *)
    Dynload.flush_pending dynload;
    if rate > 0 && Rng.int rng 1000 < rate then churn ();
    let k = Rng.int rng resident in
    let i = slots.(k) in
    let addr =
      match
        Loader.func_addr linked ~mname:s.Churn.plugins.(i).Dlink_obj.Objfile.name
          ~fname:(s.Churn.entry i)
      with
      | Some a -> a
      | None ->
          invalid_arg
            (Printf.sprintf "Churn_oracle.run: %s not found" (s.Churn.entry i))
    in
    Oracle.collector_reset ref_col;
    Oracle.collector_reset dut_col;
    Process.call ref_p addr;
    let crashed =
      try
        Process.call dut_p addr;
        false
      with Process.Fault _ | Skip.Misspeculation _ -> true
    in
    let tainted =
      Oracle.diff_request ~skip ~counters ~ever_skipped
        ~on_unclassified:(fun () -> incr unclassified)
        ~on_divergence:record_div ~request:r
        (Oracle.collector_records ref_col)
        (Oracle.collector_records dut_col)
    in
    if crashed then incr unclassified;
    if tainted || crashed then Process.resync_arch dut_p ~from_:ref_p
  in

  for r = 0 to ops - 1 do
    run_op r
  done;
  Inject.detach inject;
  let stats = Dynload.stats dynload in
  {
    ops;
    churn_events = !churn_events;
    mis_skips = counters.Counters.mis_skips;
    lost_skips = counters.Counters.lost_skips;
    unclassified = !unclassified;
    skips = counters.Counters.tramp_skips;
    resolver_runs = counters.Counters.resolver_runs;
    faults_injected = counters.Counters.fault_injected;
    stable_hits = stats.Dynload.stable_hits;
    stable_misses = stats.Dynload.stable_misses;
    counters = Counters.copy counters;
    divergences = List.rev !divergences;
  }

type core_class = {
  c_mis_skips : int;
  c_lost_skips : int;
  c_stale_unload : int;
  c_timeout_degrades : int;
}

type multi_report = {
  m_ops : int;
  m_churn_events : int;
  m_migrations : int;
  m_mis_skips : int;
  m_lost_skips : int;
  m_stale_unload : int;
  m_unclassified : int;
  m_bus_timeouts : int;
  m_per_core : core_class array;
  m_counters : Counters.t;  (* system-wide sum *)
  m_divergences : Oracle.divergence list;
}

(* Multi-core differential churn: the soak topology (one thread
   round-robin over [cores] kernels, acked coherence bus, epoch-guarded
   unmaps) run against a pure architectural reference.  Divergences are
   classified per dispatched core, with two extra buckets beyond the
   single-core taxonomy: a divergence inside the hazard window after a
   [Stale_unload]/[Unload_inflight] close is charged to stale-unload,
   and a coherence timeout's forced degradation is tracked per victim
   core. *)
let run_multi ?(ucfg = Config.xeon_e5450) ?skip_cfg ?plan ?(hazard_window = 50)
    ?(call_fuel = 1_000_000) ~cores ~quantum ~policy ~link_mode ~rate ~ops ~seed
    (s : Churn.scenario) =
  if cores < 1 then invalid_arg "Churn_oracle.run_multi: cores must be >= 1";
  if quantum < 1 then invalid_arg "Churn_oracle.run_multi: quantum must be >= 1";
  let plan = Option.value plan ~default:(Plan.empty 0) in
  let opts =
    {
      Loader.default_options with
      mode = link_mode;
      func_align = s.Churn.func_align;
      ld_preload = s.Churn.preload;
    }
  in
  let linked = Loader.load_exn ~opts s.Churn.base_objs in
  let in_got = Loader.in_any_got linked in
  let ld_so =
    match Space.image_by_name linked.Loader.space Loader.ld_so_name with
    | Some img -> img
    | None -> invalid_arg "Churn_oracle.run_multi: no dynamic-linker image"
  in
  let in_ld_so pc = Image.contains ld_so pc in

  let ref_col = Oracle.make_collector () in
  let ref_hooks =
    {
      Process.on_fetch_call = (fun ~pc:_ ~arch_target -> arch_target);
      on_retire =
        (fun ev -> Oracle.collector_on_retire ~in_ld_so ref_col ev);
    }
  in
  let ref_p = Process.create ~hooks:ref_hooks linked in

  let kernels =
    Array.init cores (fun _ -> Kernel.create ~ucfg ?skip_cfg ~with_skip:true ())
  in
  let skips = Array.map (fun k -> Option.get (Kernel.skip k)) kernels in
  let cur = ref 0 in
  let dut_col = Oracle.make_collector () in
  Array.iter
    (fun k ->
      Kernel.set_tap k
        (Some
           (fun ev ->
             Oracle.collector_on_retire ~in_ld_so dut_col ev)))
    kernels;
  let per_hooks = Array.map Kernel.process_hooks kernels in
  let dut_hooks =
    {
      Process.on_fetch_call =
        (fun ~pc ~arch_target ->
          per_hooks.(!cur).Process.on_fetch_call ~pc ~arch_target);
      on_retire = (fun ev -> per_hooks.(!cur).Process.on_retire ev);
    }
  in
  let dut_p = Process.create ~hooks:dut_hooks linked in
  let dut_mem = Process.memory dut_p in
  Array.iter
    (fun k -> Kernel.set_read_got k (fun slot -> Memory.read dut_mem slot))
    kernels;

  let bus = Coherence.create () in
  Array.iteri
    (fun i sk ->
      Coherence.subscribe bus ~core:i (fun ~src:_ addr ->
          Skip.on_remote_store sk addr))
    skips;

  let store a v =
    Memory.write (Process.memory ref_p) a v;
    Memory.write dut_mem a v;
    Kernel.retire_store kernels.(!cur) ~pc:linked.Loader.resolver_entry
      ~got_store:(in_got a) a
  in
  let dynload = Dynload.create ~store ~read:(Memory.read dut_mem) linked in
  Dynload.set_unmap_barrier dynload
    (Some
       (fun ~span_base:_ ~span_end:_ ~complete -> Coherence.fence bus ~complete));
  Array.iteri
    (fun i k ->
      Kernel.set_got_sink k
        (Some
           (fun addr ->
             let stamp =
               match Dynload.generation_at dynload addr with
               | Some g -> g
               | None -> -1
             in
             Coherence.publish ~stamp bus ~src:i addr)))
    kernels;
  Coherence.set_validate bus
    (Some
       (fun ~src:_ ~stamp addr ->
         (match Dynload.generation_at dynload addr with
         | Some g -> g
         | None -> -1)
         = stamp));
  let degrades = Array.make cores 0 in
  Coherence.set_on_timeout bus
    (Some
       (fun ~core ~src:_ _addr ->
         if Skip.degraded_remaining skips.(core) = 0 then
           degrades.(core) <- degrades.(core) + 1;
         Skip.degrade skips.(core) ~window:Skip.default_config.quarantine_window));

  let rewrite rng =
    let live = ref [] in
    Abtb.iter (fun _tramp e -> live := e :: !live) (Skip.abtb skips.(!cur));
    let live = Array.of_list (List.rev !live) in
    let pool =
      Array.of_list
        (List.filter_map
           (fun sym -> Linkmap.lookup_addr linked.Loader.linkmap sym)
           (Linkmap.symbols linked.Loader.linkmap))
    in
    if Array.length live = 0 || Array.length pool < 2 then false
    else begin
      let e = live.(Rng.int rng (Array.length live)) in
      let cands =
        Array.to_list pool |> List.filter (fun a -> a <> e.Abtb.func)
      in
      match cands with
      | [] -> false
      | _ ->
          let target = List.nth cands (Rng.int rng (List.length cands)) in
          Memory.write (Process.memory ref_p) e.Abtb.got_slot target;
          Memory.write dut_mem e.Abtb.got_slot target;
          true
    end
  in
  let inject =
    Inject.create ~bus ~rewrite ~skip:skips.(0)
      ~counters:(Kernel.counters kernels.(0))
      ~plan ()
  in
  Array.iteri (fun i sk -> if i > 0 then Inject.attach_skip inject sk) skips;
  Inject.set_current inject (Some (fun () -> skips.(!cur)));

  let n = Array.length s.Churn.plugins in
  let resident = max 1 (min s.Churn.n_resident n) in
  let rng = Rng.create seed in
  let slots = Array.init resident (fun i -> i) in
  let parked = Queue.create () in
  for i = resident to n - 1 do
    Queue.add i parked
  done;
  let handles =
    Array.map (fun i -> Dynload.dlopen dynload s.Churn.plugins.(i)) slots
  in
  let churn_events = ref 0 in
  let hazard_until = ref (-1) in
  let op = ref 0 in
  let close_handle h =
    if Inject.take_stale_unload inject then begin
      hazard_until := !op + hazard_window;
      Inject.begin_unbounded_suppress inject;
      Dynload.dlclose dynload h;
      Inject.end_unbounded_suppress inject
    end
    else if Inject.take_unload_inflight inject then begin
      hazard_until := !op + hazard_window;
      Dynload.dlclose ~defer_invalidate:true dynload h
    end
    else Dynload.dlclose dynload h
  in
  let churn () =
    if n > resident then begin
      let k = Rng.int rng resident in
      close_handle handles.(k);
      Queue.add slots.(k) parked;
      let inc = Queue.take parked in
      slots.(k) <- inc;
      handles.(k) <- Dynload.dlopen dynload s.Churn.plugins.(inc);
      incr churn_events
    end
    else begin
      close_handle handles.(0);
      handles.(0) <- Dynload.dlopen dynload s.Churn.plugins.(slots.(0));
      incr churn_events
    end
  in

  let unclassified = ref 0 in
  let stale_unload = Array.make cores 0 in
  let divergences = ref [] in
  let n_div = ref 0 in
  let ever_skipped = Hashtbl.create 64 in
  let record_div (d : Oracle.divergence) =
    if d.Oracle.request < !hazard_until then
      stale_unload.(!cur) <- stale_unload.(!cur) + 1;
    if !n_div < max_recorded_divergences then begin
      divergences := d :: !divergences;
      incr n_div
    end
  in
  let migrations = ref 0 in
  let dispatch core =
    if core <> !cur then begin
      incr migrations;
      (match policy with
      | Policy.Flush -> Kernel.context_switch kernels.(core)
      | Policy.Asid | Policy.Asid_shared_guard ->
          Kernel.context_switch ~retain_asid:true kernels.(core));
      cur := core
    end
  in

  let run_op r =
    if r mod quantum = 0 then begin
      dispatch (r / quantum mod cores);
      ignore (Coherence.drain bus : int)
    end;
    Inject.on_request inject r;
    Dynload.flush_pending dynload;
    if rate > 0 && Rng.int rng 1000 < rate then churn ();
    let k = Rng.int rng resident in
    let i = slots.(k) in
    let addr =
      match
        Loader.func_addr linked ~mname:s.Churn.plugins.(i).Dlink_obj.Objfile.name
          ~fname:(s.Churn.entry i)
      with
      | Some a -> a
      | None ->
          invalid_arg
            (Printf.sprintf "Churn_oracle.run_multi: %s not found"
               (s.Churn.entry i))
    in
    Oracle.collector_reset ref_col;
    Oracle.collector_reset dut_col;
    (* An injected GOT rewrite corrupts the shared architectural state,
       so even the reference can land in a function that never returns
       to this frame; a bounded-fuel crash on either machine makes the
       op unclassifiable chaos rather than a hang. *)
    let ref_crashed =
      try
        Process.call ref_p ~fuel:call_fuel addr;
        false
      with Process.Fault _ -> true
    in
    let crashed =
      try
        Process.call dut_p ~fuel:call_fuel addr;
        false
      with Process.Fault _ | Skip.Misspeculation _ -> true
    in
    if ref_crashed || crashed then begin
      incr unclassified;
      Process.resync_arch dut_p ~from_:ref_p
    end
    else begin
      let tainted =
        Oracle.diff_request ~skip:skips.(!cur)
          ~counters:(Kernel.counters kernels.(!cur))
          ~ever_skipped
          ~on_unclassified:(fun () -> incr unclassified)
          ~on_divergence:record_div ~request:r
          (Oracle.collector_records ref_col)
          (Oracle.collector_records dut_col)
      in
      if tainted then Process.resync_arch dut_p ~from_:ref_p
    end
  in

  while !op < ops do
    run_op !op;
    incr op
  done;
  let rec settle budget =
    if budget > 0 && Coherence.pending bus > 0 then begin
      ignore (Coherence.drain bus : int);
      settle (budget - 1)
    end
  in
  settle 256;
  ignore (Dynload.force_retiring dynload : int);
  settle 256;
  Inject.detach inject;

  let per_core =
    Array.init cores (fun i ->
        let c = Kernel.counters kernels.(i) in
        {
          c_mis_skips = c.Counters.mis_skips;
          c_lost_skips = c.Counters.lost_skips;
          c_stale_unload = stale_unload.(i);
          c_timeout_degrades = degrades.(i);
        })
  in
  let sum = Counters.create () in
  Array.iter (fun k -> Counters.add ~into:sum (Kernel.counters k)) kernels;
  {
    m_ops = ops;
    m_churn_events = !churn_events;
    m_migrations = !migrations;
    m_mis_skips = sum.Counters.mis_skips;
    m_lost_skips = sum.Counters.lost_skips;
    m_stale_unload = Array.fold_left ( + ) 0 stale_unload;
    m_unclassified = !unclassified;
    m_bus_timeouts = Coherence.timeouts bus;
    m_per_core = per_core;
    m_counters = sum;
    m_divergences = List.rev !divergences;
  }
