open Dlink_isa
open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Rng = Dlink_util.Rng
module Skip = Dlink_pipeline.Skip
module Kernel = Dlink_pipeline.Kernel
module Policy = Dlink_pipeline.Policy
module Churn = Dlink_core.Churn
module Objfile = Dlink_obj.Objfile

type params = {
  cores : int;
  quantum : int;
  policy : Policy.t;
  link_mode : Mode.t;
  rate : int;
  ops : int;
  min_instructions : int;
  seed : int;
  epoch_guard : bool;
  degrade_window : int;
  call_fuel : int;
}

let default_params =
  {
    cores = 4;
    quantum = 64;
    policy = Policy.Asid_shared_guard;
    link_mode = Mode.Lazy_binding;
    rate = 100;
    ops = 10_000;
    min_instructions = 0;
    seed = 1;
    epoch_guard = true;
    degrade_window = 64;
    call_fuel = 1_000_000;
  }

type bus_stats = {
  published : int;
  delivered : int;
  acked : int;
  dropped : int;
  retries : int;
  reorders : int;
  timeouts : int;
  stale_discards : int;
  unresolved : int;
}

type report = {
  ops : int;
  churn_events : int;
  migrations : int;
  crashes : int;
  counters : Counters.t;
  per_core : Counters.t array;
  checks : int;
  violations : int;
  fetch_unmapped : int;
  stale_skips : int;
  stale_messages : int;
  aba_discards : int;
  recorded : Invariant.violation list;
  first_violation_op : int option;
  epoch_guard : bool;
  bus : bus_stats;
  opens : int;
  closes : int;
  rebinds : int;
  grace_unmaps : int;
  forced_unmaps : int;
  retiring : int;
  faults_injected : int;
}

(* The soak topology: ONE interpreter process (one address space, one
   architectural thread) migrating round-robin over [cores] pipeline
   kernels, its hooks routed through a mutable current-core index.  Each
   kernel keeps its own skip unit whose state persists while the thread
   runs elsewhere — exactly the state the coherence bus must keep honest
   as the dynamic loader churns modules underneath it.  The invariant
   checker taps every kernel and the bus's validation point; nothing it
   does feeds back into the machine. *)
let run ?ucfg ?skip_cfg ?plan (p : params) (s : Churn.scenario) =
  if p.cores < 1 then invalid_arg "Soak.run: cores must be >= 1";
  if p.quantum < 1 then invalid_arg "Soak.run: quantum must be >= 1";
  let plan = Option.value plan ~default:(Plan.empty 0) in
  let opts =
    {
      Loader.default_options with
      mode = p.link_mode;
      func_align = s.Churn.func_align;
      ld_preload = s.Churn.preload;
    }
  in
  let linked = Loader.load_exn ~opts s.Churn.base_objs in
  let in_got = Loader.in_any_got linked in
  let kernels =
    Array.init p.cores (fun _ -> Kernel.create ?ucfg ?skip_cfg ~with_skip:true ())
  in
  let skips = Array.map (fun k -> Option.get (Kernel.skip k)) kernels in
  let cur = ref 0 in
  let per_hooks = Array.map Kernel.process_hooks kernels in
  let hooks =
    {
      Process.on_fetch_call =
        (fun ~pc ~arch_target ->
          per_hooks.(!cur).Process.on_fetch_call ~pc ~arch_target);
      on_retire = (fun ev -> per_hooks.(!cur).Process.on_retire ev);
    }
  in
  let process = Process.create ~hooks linked in
  let mem = Process.memory process in
  Array.iter
    (fun k -> Kernel.set_read_got k (fun slot -> Memory.read mem slot))
    kernels;

  let bus = Coherence.create () in
  Array.iteri
    (fun i sk ->
      Coherence.subscribe bus ~core:i (fun ~src:_ addr ->
          Skip.on_remote_store sk addr))
    skips;

  (* Every loader GOT write is an architectural store retired on the
     currently dispatched core; the kernel's got-store sink then
     publishes it — stamped with the owning mapping's generation — so
     the other cores' skip units see churn as coherence traffic. *)
  let store a v =
    Memory.write mem a v;
    Kernel.retire_store kernels.(!cur) ~pc:linked.Loader.resolver_entry
      ~got_store:(in_got a) a
  in
  let dynload = Dynload.create ~store ~read:(Memory.read mem) linked in
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

  let inv =
    Invariant.create
      {
        Invariant.in_mapped =
          (fun pc -> Space.image_at linked.Loader.space pc <> None);
        skip_target_ok =
          (fun ~tramp ~target ->
            match Loader.plt_symbol_at linked tramp with
            | None -> false
            | Some (sym, img_id) -> (
                match Space.image_by_id linked.Loader.space img_id with
                | None -> false
                | Some img -> (
                    match Hashtbl.find_opt img.Image.got_slots sym with
                    | None -> false
                    | Some slot -> Memory.read mem slot = target)));
        message_fresh =
          (fun ~stamp addr ->
            (match Dynload.generation_at dynload addr with
            | Some g -> g
            | None -> -1)
            = stamp);
        epoch_guard = p.epoch_guard;
      }
  in
  Array.iteri
    (fun i k -> Kernel.set_tap k (Some (fun ev -> Invariant.on_retire inv ~core:i ev)))
    kernels;
  Coherence.set_validate bus
    (Some (fun ~src ~stamp addr -> Invariant.on_message inv ~src ~stamp addr));
  (* A timed-out invalidation means that core may hold a stale skip
     entry nobody will ever correct: degrade it — whole-core flush plus
     a suppression window on the architectural path — instead of letting
     it keep skipping on trust. *)
  Coherence.set_on_timeout bus
    (Some
       (fun ~core ~src:_ _addr ->
         Skip.degrade skips.(core) ~window:p.degrade_window));

  (* Got_rewrite strikes the dispatched core's ABTB: rebind the GOT slot
     behind a live entry directly in memory, bypassing retire (and hence
     the Bloom filter and the bus) — the unguarded-store hazard the
     checker must catch as a stale skip. *)
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
          Memory.write mem e.Abtb.got_slot
            (List.nth cands (Rng.int rng (List.length cands)));
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

  (* Rotation state and request loop mirror {!Dlink_core.Churn.run_cell}
     draw for draw, so a [cores = 1] soak consumes the identical RNG
     stream and retires the identical instruction stream — the
     crosscheck below holds it to bit-identical counters. *)
  let n = Array.length s.Churn.plugins in
  let resident = max 1 (min s.Churn.n_resident n) in
  let rng = Rng.create p.seed in
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
  let crashes = ref 0 in
  let call_one () =
    let k = Rng.int rng resident in
    let i = slots.(k) in
    let addr =
      match
        Loader.func_addr linked ~mname:s.Churn.plugins.(i).Objfile.name
          ~fname:(s.Churn.entry i)
      with
      | Some a -> a
      | None ->
          invalid_arg
            (Printf.sprintf "Soak.run: %s.%s not found"
               s.Churn.plugins.(i).Objfile.name (s.Churn.entry i))
    in
    (* Under injected faults the interpreter itself can refuse to
       proceed; classify the crash with the checker's vocabulary (the pc
       recorded is the request's entry — the precise faulting pc died
       with the exception) and keep soaking.  The fuel bound matters: a
       mis-directed call can land in a function that never returns to
       this request's frame, and an unbounded interpreter would spin. *)
    try Process.call process ~fuel:p.call_fuel addr with
    | Process.Fault _ ->
        incr crashes;
        Invariant.record_fetch_fault inv ~core:!cur ~pc:addr
    | Skip.Misspeculation _ ->
        incr crashes;
        Invariant.record_stale_skip inv ~core:!cur ~pc:addr ~tramp:Addr.none
          ~target:Addr.none
  in
  for k = 0 to resident - 1 do
    let i = slots.(k) in
    match
      Loader.func_addr linked ~mname:s.Churn.plugins.(i).Objfile.name
        ~fname:(s.Churn.entry i)
    with
    | Some a -> Process.call process a
    | None -> ()
  done;
  let before = Array.map (fun k -> Counters.copy (Kernel.counters k)) kernels in

  let migrations = ref 0 in
  let first_vop = ref None in
  let dispatch core =
    if core <> !cur then begin
      incr migrations;
      (match p.policy with
      | Policy.Flush -> Kernel.context_switch kernels.(core)
      | Policy.Asid | Policy.Asid_shared_guard ->
          Kernel.context_switch ~retain_asid:true kernels.(core));
      cur := core
    end
  in
  let total_instructions () =
    Array.fold_left
      (fun acc k -> acc + (Kernel.counters k).Counters.instructions)
      0 kernels
  in
  let op = ref 0 in
  while !op < p.ops || total_instructions () < p.min_instructions do
    if !op mod p.quantum = 0 then begin
      dispatch (!op / p.quantum mod p.cores);
      ignore (Coherence.drain bus : int)
    end;
    Inject.on_request inject !op;
    (* Deferred invalidations from an Unload_inflight close land at the
       next op boundary — after the freed range may have been reused. *)
    Dynload.flush_pending dynload;
    if p.rate > 0 && Rng.int rng 1000 < p.rate then churn ();
    call_one ();
    if !first_vop = None && Invariant.violations inv > 0 then
      first_vop := Some !op;
    incr op
  done;

  (* Quiesce: drain until every parked message resolves (retry backoff is
     bounded, so this terminates well inside the budget), then force any
     grace periods still waiting on cores that will never ack. *)
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
    Array.mapi
      (fun i k -> Counters.diff ~after:(Kernel.counters k) ~before:before.(i))
      kernels
  in
  let counters = Counters.create () in
  Array.iter (fun c -> Counters.add ~into:counters c) per_core;
  let d = Dynload.stats dynload in
  {
    ops = !op;
    churn_events = !churn_events;
    migrations = !migrations;
    crashes = !crashes;
    counters;
    per_core;
    checks = Invariant.checks inv;
    violations = Invariant.violations inv;
    fetch_unmapped = Invariant.fetch_unmapped inv;
    stale_skips = Invariant.stale_skips inv;
    stale_messages = Invariant.stale_messages inv;
    aba_discards = Invariant.aba_discards inv;
    recorded = Invariant.recorded inv;
    first_violation_op = !first_vop;
    epoch_guard = p.epoch_guard;
    bus =
      {
        published = Coherence.published bus;
        delivered = Coherence.delivered bus;
        acked = Coherence.acked bus;
        dropped = Coherence.dropped bus;
        retries = Coherence.retries bus;
        reorders = Coherence.reorders bus;
        timeouts = Coherence.timeouts bus;
        stale_discards = Coherence.stale_discards bus;
        unresolved = Coherence.pending bus;
      };
    opens = d.Dynload.opens;
    closes = d.Dynload.closes;
    rebinds = d.Dynload.rebinds;
    grace_unmaps = d.Dynload.grace_unmaps;
    forced_unmaps = d.Dynload.forced_unmaps;
    retiring = Dynload.retiring_count dynload;
    faults_injected = counters.Counters.fault_injected;
  }

let check ?(plan = Plan.empty 0) (r : report) =
  let clean = plan.Plan.events = [] in
  let fail cond msg acc = if cond then msg :: acc else acc in
  []
  |> fail (clean && r.violations > 0) "invariant violation in a fault-free run"
  |> fail (clean && r.crashes > 0) "interpreter fault in a fault-free run"
  |> fail (clean && r.bus.timeouts > 0) "coherence timeout in a fault-free run"
  |> fail
       (clean && r.bus.dropped > 0)
       "dropped delivery attempt in a fault-free run"
  |> fail (r.bus.unresolved > 0) "coherence messages unresolved after quiesce"
  |> fail (r.retiring > 0) "unmap grace periods unresolved after quiesce"
  |> fail
       (r.bus.published
       <> r.bus.acked + r.bus.timeouts + r.bus.stale_discards)
       "bus conservation violated (published <> acked + timeouts + stale)"
  |> fail
       (r.epoch_guard && r.stale_messages > 0)
       "stale message applied despite the epoch guard"
  |> List.rev

let failed ~plan r = r.violations > 0 || check ~plan r <> []

(* ddmin over plan events, as {!Fuzz.shrink}: drop contiguous chunks while
   the sub-plan still produces a violation or a property failure. *)
let shrink ?ucfg ?skip_cfg (p : params) ~plan (s : Churn.scenario) =
  let trial events =
    let sub = { plan with Plan.events } in
    (sub, run ?ucfg ?skip_cfg ~plan:sub p s)
  in
  let r0 = run ?ucfg ?skip_cfg ~plan p s in
  if not (failed ~plan r0) then (plan, r0)
  else begin
    let best = ref (plan, r0) in
    let continue = ref true in
    while !continue do
      continue := false;
      let events = Array.of_list (fst !best).Plan.events in
      let n = Array.length events in
      let chunk = ref (max 1 (n / 2)) in
      let improved = ref false in
      while (not !improved) && !chunk >= 1 do
        let i = ref 0 in
        while (not !improved) && !i < n do
          let keep =
            Array.to_list events
            |> List.filteri (fun j _ -> j < !i || j >= !i + !chunk)
          in
          if List.length keep < n then begin
            let sub, r = trial keep in
            if failed ~plan:sub r then begin
              best := (sub, r);
              improved := true;
              continue := true
            end
          end;
          i := !i + !chunk
        done;
        if not !improved then chunk := !chunk / 2
      done
    done;
    !best
  end

let crosscheck ?ucfg ?skip_cfg (p : params) (s : Churn.scenario) =
  let p1 = { p with cores = 1; min_instructions = 0 } in
  let r = run ?ucfg ?skip_cfg p1 s in
  let cell =
    Churn.run_cell ?ucfg ?skip_cfg ~link_mode:p.link_mode ~rate:p.rate
      ~calls:p.ops ~seed:p.seed s
  in
  if r.counters = cell.Churn.counters then Ok ()
  else
    Error
      (Format.asprintf
         "cores=1 soak diverges from run_cell at seed %d:@.soak:@.%a@.cell:@.%a"
         p.seed Counters.pp r.counters Counters.pp cell.Churn.counters)
