open Dlink_isa
open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Rng = Dlink_util.Rng
module Skip = Dlink_pipeline.Skip
module Kernel = Dlink_pipeline.Kernel
module Workload = Dlink_core.Workload

type divergence = {
  request : int;
  site : Addr.t;
  arch_target : Addr.t;
  ref_dest : Addr.t;
  dut_dest : Addr.t;
  mis_skip : bool;
}

type report = {
  requests : int;
  mis_skips : int;
  lost_skips : int;
  unclassified : int;
  quarantine_entries : int;
  skips : int;
  faults_injected : int;
  cooldown_requests : int;
  cooldown_mis_skips : int;
  cooldown_skips : int;
  counters : Counters.t;
  divergences : divergence list;
}

let max_recorded_divergences = 32

(* One projected control-flow record: a library call (a direct call whose
   architectural target is a PLT entry) and the destination it actually
   reached — for a skipped call the redirect target, otherwise the PC of
   the first instruction retired outside any PLT and outside the dynamic
   linker (i.e. past trampoline and resolver, wherever they went). *)
type record = {
  r_site : Addr.t;
  r_tramp : Addr.t;
  r_dest : Addr.t;
  r_skipped : bool;
}

type collector = {
  mutable records : record list; (* newest first *)
  mutable window : (Addr.t * Addr.t) option; (* (site, tramp) awaiting dest *)
}

let make_collector () = { records = []; window = None }

let collector_reset c =
  c.records <- [];
  c.window <- None

let collector_on_retire ~in_ld_so c (ev : Event.t) =
  (match c.window with
  | Some (site, tramp) when (not ev.Event.in_plt) && not (in_ld_so ev.Event.pc)
    ->
      c.records <-
        { r_site = site; r_tramp = tramp; r_dest = ev.Event.pc; r_skipped = false }
        :: c.records;
      c.window <- None
  | _ -> ());
  (* A direct call's [plt_call] flag says its architectural target [aux]
     is a PLT entry. *)
  if ev.Event.plt_call && ev.Event.kind = Event.Kind.call_direct then
    if ev.Event.target <> ev.Event.aux then
      c.records <-
        {
          r_site = ev.Event.pc;
          r_tramp = ev.Event.aux;
          r_dest = ev.Event.target;
          r_skipped = true;
        }
        :: c.records
    else c.window <- Some (ev.Event.pc, ev.Event.aux)

let collector_records c = List.rev c.records

(* Walk the two projected streams in lockstep and classify each pairwise
   difference; shared by the static oracle below and the churn oracle.
   Returns whether the DUT's architectural state diverged (tainted) and
   must be resynchronised onto the reference. *)
let diff_request ~skip ~(counters : Counters.t) ~ever_skipped ~on_unclassified
    ~on_divergence ~request rrecs drecs =
  let tainted = ref false in
  let rec go rs ds =
    if !tainted then ()
    else
      match (rs, ds) with
      | [], [] -> ()
      | rr :: rs', dr :: ds' ->
          if rr.r_tramp <> dr.r_tramp then begin
            on_unclassified ();
            tainted := true;
            on_divergence
              {
                request;
                site = dr.r_site;
                arch_target = dr.r_tramp;
                ref_dest = rr.r_dest;
                dut_dest = dr.r_dest;
                mis_skip = false;
              }
          end
          else if rr.r_dest = dr.r_dest then begin
            if dr.r_skipped then Hashtbl.replace ever_skipped dr.r_tramp ()
            else if Hashtbl.mem ever_skipped dr.r_tramp then
              counters.Counters.lost_skips <- counters.Counters.lost_skips + 1;
            go rs' ds'
          end
          else begin
            tainted := true;
            if dr.r_skipped then begin
              (* Stale target retired: the correctness violation. *)
              Skip.report_mis_skip skip ~tramp:dr.r_tramp;
              on_divergence
                {
                  request;
                  site = dr.r_site;
                  arch_target = dr.r_tramp;
                  ref_dest = rr.r_dest;
                  dut_dest = dr.r_dest;
                  mis_skip = true;
                }
            end
            else begin
              on_unclassified ();
              on_divergence
                {
                  request;
                  site = dr.r_site;
                  arch_target = dr.r_tramp;
                  ref_dest = rr.r_dest;
                  dut_dest = dr.r_dest;
                  mis_skip = false;
                }
            end
          end
      | _, _ ->
          (* Stream lengths differ with no classified cause. *)
          on_unclassified ();
          tainted := true
  in
  go rrecs drecs;
  !tainted

(* Rebinding targets for Got_rewrite: every linkmap-defined function
   outside the dynamic linker, in a deterministic order. *)
let rewrite_pool linked =
  let space = linked.Loader.space in
  let addrs =
    List.filter_map
      (fun sym ->
        match Linkmap.lookup_addr linked.Loader.linkmap sym with
        | None -> None
        | Some a -> (
            match Space.image_at space a with
            | Some img when img.Image.name <> Loader.ld_so_name -> Some a
            | _ -> None))
      (Linkmap.symbols linked.Loader.linkmap)
  in
  let arr = Array.of_list (List.sort_uniq compare addrs) in
  arr

let run ?(ucfg = Config.xeon_e5450) ?skip_cfg ?plan ?requests ?(cooldown = 0)
    (w : Workload.t) =
  let plan = Option.value plan ~default:(Plan.empty 0) in
  let requests = Option.value requests ~default:w.Workload.default_requests in
  let opts =
    {
      Loader.default_options with
      mode = Dlink_linker.Mode.Lazy_binding;
      func_align = w.Workload.func_align;
    }
  in
  let linked = Loader.load_exn ~opts w.Workload.objs in
  let ld_so =
    match Space.image_by_name linked.Loader.space Loader.ld_so_name with
    | Some img -> img
    | None -> invalid_arg "Oracle.run: no dynamic-linker image"
  in
  let in_ld_so pc = Image.contains ld_so pc in

  (* Reference machine: pure architectural interpreter, no skip hardware. *)
  let ref_col = make_collector () in
  let ref_hooks =
    {
      Process.on_fetch_call = (fun ~pc:_ ~arch_target -> arch_target);
      on_retire = (fun ev -> collector_on_retire ~in_ld_so ref_col ev);
    }
  in
  let ref_p = Process.create ~hooks:ref_hooks linked in

  (* Device under test: the Enhanced pipeline — the same kernel every
     other execution path drives, with the oracle's projected control-flow
     collector attached as the kernel's event tap. *)
  let kernel = Kernel.create ~ucfg ?skip_cfg ~with_skip:true () in
  let counters = Kernel.counters kernel in
  let skip = Option.get (Kernel.skip kernel) in
  let dut_col = make_collector () in
  Kernel.set_tap kernel
    (Some (fun ev -> collector_on_retire ~in_ld_so dut_col ev));
  let dut_p = Process.create ~hooks:(Kernel.process_hooks kernel) linked in
  Kernel.set_read_got kernel (fun slot ->
      Memory.read (Process.memory dut_p) slot);

  (* Got_rewrite: rebind the GOT slot behind a live ABTB entry in BOTH
     memories, bypassing both retire streams — the unguarded rebinding
     store the mechanism cannot observe. *)
  let pool = rewrite_pool linked in
  let rewrite rng =
    let live = ref [] in
    Abtb.iter (fun _tramp e -> live := e :: !live) (Skip.abtb skip);
    let live = Array.of_list (List.rev !live) in
    if Array.length live = 0 || Array.length pool < 2 then false
    else begin
      let e = live.(Rng.int rng (Array.length live)) in
      let cands = Array.to_list pool |> List.filter (fun a -> a <> e.Abtb.func) in
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

  let run_request ~with_faults r =
    if with_faults then Inject.on_request inject r;
    let req = w.Workload.gen_request r in
    let addr =
      match
        Loader.func_addr linked ~mname:req.Workload.mname
          ~fname:req.Workload.fname
      with
      | Some a -> a
      | None ->
          invalid_arg
            (Printf.sprintf "Oracle.run: %s.%s not found" req.Workload.mname
               req.Workload.fname)
    in
    collector_reset ref_col;
    collector_reset dut_col;
    Process.call ref_p addr;
    let crashed =
      try
        Process.call dut_p addr;
        false
      with Process.Fault _ | Skip.Misspeculation _ -> true
    in
    let tainted =
      diff_request ~skip ~counters ~ever_skipped
        ~on_unclassified:(fun () -> incr unclassified)
        ~on_divergence:record_div ~request:r (collector_records ref_col)
        (collector_records dut_col)
    in
    if crashed then incr unclassified;
    if tainted || crashed then
      (* The DUT's architectural state genuinely diverged; fold it back
         onto the reference so the streams re-converge next request. *)
      Process.resync_arch dut_p ~from_:ref_p
  in

  for r = 0 to requests - 1 do
    run_request ~with_faults:true r
  done;
  let snap = Counters.copy counters in
  Inject.detach inject;
  for r = requests to requests + cooldown - 1 do
    run_request ~with_faults:false r
  done;
  {
    requests;
    mis_skips = counters.Counters.mis_skips;
    lost_skips = counters.Counters.lost_skips;
    unclassified = !unclassified;
    quarantine_entries = counters.Counters.quarantine_entries;
    skips = counters.Counters.tramp_skips;
    faults_injected = counters.Counters.fault_injected;
    cooldown_requests = cooldown;
    cooldown_mis_skips = counters.Counters.mis_skips - snap.Counters.mis_skips;
    cooldown_skips = counters.Counters.tramp_skips - snap.Counters.tramp_skips;
    counters = Counters.copy counters;
    divergences = List.rev !divergences;
  }
