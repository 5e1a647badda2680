open Dlink_uarch
module Skip = Dlink_pipeline.Skip
module Kernel = Dlink_pipeline.Kernel
module Profile = Dlink_pipeline.Profile

type run = {
  mode : Sim.mode;
  workload_name : string;
  counters : Counters.t;
  latencies_us : (string * float array) array;
  tramp_calls : int;
  distinct_trampolines : int;
  rank_frequency : (float * float) list;
  tramp_stream : int array;
  requests : int;
  wall_s : float;
  sim_mips : float;
}

let mips ~instructions ~wall_s =
  if wall_s > 0.0 then float_of_int instructions /. wall_s /. 1e6 else 0.0

(* The one run-scenario measurement loop, shared by generate ([run]) and
   packed-trace replay ([Dlink_trace.Replay.replay]). *)
let measure ?context_switch_every ?(retain_asid = false) ~mode ~kernel
    ~profile ~warmup ~requests:n ~exec (w : Workload.t) =
  for r = 0 to warmup - 1 do
    ignore (exec r : int)
  done;
  Profile.reset profile;
  Kernel.set_profile kernel (Some profile);
  let counters = Kernel.counters kernel in
  let snapshot = Counters.copy counters in
  let t0 = Unix.gettimeofday () in
  let buckets = Array.map (fun _ -> ref []) w.Workload.request_type_names in
  for i = 0 to n - 1 do
    (match context_switch_every with
    | Some k when k > 0 && i > 0 && i mod k = 0 ->
        Kernel.context_switch ~retain_asid kernel
    | _ -> ());
    let before = counters.Counters.cycles in
    let rtype = exec (warmup + i) in
    let us = Workload.cycles_to_us w (counters.Counters.cycles - before) in
    buckets.(rtype) := us :: !(buckets.(rtype))
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let counters = Counters.diff ~after:counters ~before:snapshot in
  {
    mode;
    workload_name = w.Workload.wname;
    counters;
    latencies_us =
      Array.mapi
        (fun i name -> (name, Array.of_list (List.rev !(buckets.(i)))))
        w.Workload.request_type_names;
    tramp_calls = Profile.tramp_calls profile;
    distinct_trampolines = Profile.distinct_trampolines profile;
    rank_frequency = Profile.rank_frequency profile;
    tramp_stream = Profile.stream profile;
    requests = n;
    wall_s;
    sim_mips = mips ~instructions:counters.Counters.instructions ~wall_s;
  }

let run ?ucfg ?skip_cfg ?requests ?warmup ?(record_stream = false)
    ?context_switch_every ?retain_asid ~mode (w : Workload.t) =
  let sim =
    Sim.create ?ucfg ?skip_cfg ~record_stream ~func_align:w.Workload.func_align
      ~mode w.Workload.objs
  in
  let kernel = Sim.kernel sim in
  let warmup = Option.value warmup ~default:w.Workload.warmup_requests in
  let exec r =
    let i = if r < warmup then -1 - r else r - warmup in
    let req = w.Workload.gen_request i in
    Kernel.note_boundary kernel ~rtype:req.Workload.rtype;
    Sim.call sim ~mname:req.Workload.mname ~fname:req.Workload.fname;
    req.Workload.rtype
  in
  measure ?context_switch_every ?retain_asid ~mode ~kernel
    ~profile:(Sim.profile sim) ~warmup
    ~requests:(Option.value requests ~default:w.Workload.default_requests)
    ~exec w

let tramp_pki r = Counters.pki r.counters r.counters.Counters.tramp_instructions

let mean_latency_us r name =
  let _, samples =
    match Array.find_opt (fun (n, _) -> n = name) r.latencies_us with
    | Some pair -> pair
    | None -> raise Not_found
  in
  if Array.length samples = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let compare_modes ?ucfg ?skip_cfg ?requests w =
  let base = run ?ucfg ?skip_cfg ?requests ~mode:Sim.Base w in
  let enhanced = run ?ucfg ?skip_cfg ?requests ~mode:Sim.Enhanced w in
  (base, enhanced)
