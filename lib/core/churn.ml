open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Rng = Dlink_util.Rng
module Kernel = Dlink_pipeline.Kernel
module Objfile = Dlink_obj.Objfile
module Addr = Dlink_isa.Addr

(* A churn scenario: a statically loaded base (app + service libraries,
   optionally with preload-rank interposers) plus a pool of plugin
   modules the driver rotates through dlopen/dlclose.  Lives here rather
   than in [dlink_workloads] for the same reason {!Workload.t} does: the
   drivers (bench, CLI, fault oracle) depend on this library, and the
   concrete scenario builder depends on them both. *)
type scenario = {
  sname : string;
  base_objs : Objfile.t list;  (** first object is the executable *)
  plugins : Objfile.t array;  (** rotated through dlopen/dlclose *)
  n_resident : int;  (** plugins kept open at any moment *)
  preload : string list;  (** module names with LD_PRELOAD rank *)
  entry : int -> string;  (** plugin index -> exported entry function *)
  func_align : int;
}

(* The full machine for one churn run: the static base image, the
   Enhanced pipeline kernel, one interpreter process, and a dynamic
   loader whose every GOT write retires through the kernel as an
   ordinary store — so the Bloom filter and ABTB flash-clear logic see
   module churn exactly as they see lazy resolution. *)
type machine = {
  linked : Loader.t;
  kernel : Kernel.t;
  process : Process.t;
  dynload : Dynload.t;
}

let make_machine ?ucfg ?skip_cfg ?(with_skip = true) ~link_mode ?aslr_seed
    (s : scenario) =
  let opts =
    {
      Loader.default_options with
      mode = link_mode;
      aslr_seed;
      func_align = s.func_align;
      ld_preload = s.preload;
    }
  in
  let linked = Loader.load_exn ~opts s.base_objs in
  let kernel = Kernel.create ?ucfg ?skip_cfg ~with_skip () in
  let process = Process.create ~hooks:(Kernel.process_hooks kernel) linked in
  let mem = Process.memory process in
  Kernel.set_read_got kernel (fun slot -> Memory.read mem slot);
  let store a v =
    Memory.write mem a v;
    Kernel.retire_store kernel ~pc:linked.Loader.resolver_entry
      ~got_store:(Loader.in_any_got linked a) a
  in
  let dynload = Dynload.create ~store ~read:(Memory.read mem) linked in
  { linked; kernel; process; dynload }

(* One measured (churn rate x link mode) cell. *)
type cell = {
  link_mode : Mode.t;
  rate : int;  (** churn events per 1000 calls *)
  calls : int;
  churn_events : int;
  counters : Counters.t;  (** measurement window only *)
  opens : int;
  closes : int;
  rebinds : int;
  stable_hits : int;
  stable_misses : int;
  wall_s : float;
  sim_mips : float;
}

let clear_rate c =
  1000.0 *. float_of_int c.counters.Counters.abtb_clears
  /. float_of_int (max 1 c.calls)

let skip_rate c =
  float_of_int c.counters.Counters.tramp_skips
  /. float_of_int (max 1 c.counters.Counters.tramp_calls)

(* Drive [calls] plugin invocations, rotating the resident plugin set at
   the requested rate: a churn event closes one resident plugin and opens
   one parked plugin in its place, so freed ranges get reused by modules
   with different import orders — the layout instability that makes
   runtime churn interesting to the skip hardware. *)
let run_cell ?ucfg ?skip_cfg ?(with_skip = true) ?aslr_seed ~link_mode ~rate
    ~calls ~seed (s : scenario) =
  let n = Array.length s.plugins in
  let resident = max 1 (min s.n_resident n) in
  let m = make_machine ?ucfg ?skip_cfg ~with_skip ~link_mode ?aslr_seed s in
  let rng = Rng.create seed in
  (* Rotation order: [slots] holds the resident plugin indices, [parked]
     the rest, oldest-closed first. *)
  let slots = Array.init resident (fun i -> i) in
  let parked = Queue.create () in
  for i = resident to n - 1 do
    Queue.add i parked
  done;
  let handles =
    Array.map (fun i -> Dynload.dlopen m.dynload s.plugins.(i)) slots
  in
  let churn_events = ref 0 in
  let churn () =
    if n > resident then begin
      let k = Rng.int rng resident in
      Dynload.dlclose m.dynload handles.(k);
      Queue.add slots.(k) parked;
      let inc = Queue.take parked in
      slots.(k) <- inc;
      handles.(k) <- Dynload.dlopen m.dynload s.plugins.(inc);
      incr churn_events
    end
    else begin
      (* Single-plugin pools still churn: close and immediately reopen. *)
      Dynload.dlclose m.dynload handles.(0);
      handles.(0) <- Dynload.dlopen m.dynload s.plugins.(slots.(0));
      incr churn_events
    end
  in
  let call_one () =
    let k = Rng.int rng resident in
    let i = slots.(k) in
    let addr =
      match
        Loader.func_addr m.linked ~mname:s.plugins.(i).Objfile.name
          ~fname:(s.entry i)
      with
      | Some a -> a
      | None ->
          invalid_arg
            (Printf.sprintf "Churn.run_cell: %s.%s not found"
               s.plugins.(i).Objfile.name (s.entry i))
    in
    Process.call m.process addr
  in
  (* Short warmup touches every resident plugin once so cold-start
     resolution doesn't dominate small cells. *)
  for k = 0 to resident - 1 do
    let i = slots.(k) in
    match
      Loader.func_addr m.linked ~mname:s.plugins.(i).Objfile.name
        ~fname:(s.entry i)
    with
    | Some a -> Process.call m.process a
    | None -> ()
  done;
  let before = Counters.copy (Kernel.counters m.kernel) in
  let stats0 = Dynload.stats m.dynload in
  let opens0 = stats0.Dynload.opens and closes0 = stats0.Dynload.closes in
  let rebinds0 = stats0.Dynload.rebinds in
  let hits0 = stats0.Dynload.stable_hits in
  let misses0 = stats0.Dynload.stable_misses in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    if rate > 0 && Rng.int rng 1000 < rate then churn ();
    call_one ()
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let counters =
    Counters.diff ~after:(Kernel.counters m.kernel) ~before
  in
  let stats = Dynload.stats m.dynload in
  {
    link_mode;
    rate;
    calls;
    churn_events = !churn_events;
    counters;
    opens = stats.Dynload.opens - opens0;
    closes = stats.Dynload.closes - closes0;
    rebinds = stats.Dynload.rebinds - rebinds0;
    stable_hits = stats.Dynload.stable_hits - hits0;
    stable_misses = stats.Dynload.stable_misses - misses0;
    wall_s;
    sim_mips =
      (if wall_s > 0.0 then
         float_of_int counters.Counters.instructions /. wall_s /. 1e6
       else 0.0);
  }
