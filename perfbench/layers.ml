(* Per-layer probes: push one workload's own data through one library's
   public entry point at a time, on the calling domain, and report host
   cost per unit of work.  Each probe is timed on its own, so a change to
   one layer shows in that layer's number and not in its neighbours'. *)

module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Churn = Dlink_core.Churn
module Workload = Dlink_core.Workload
module Dynload = Dlink_linker.Dynload
module Mode = Dlink_linker.Mode
module Kernel = Dlink_pipeline.Kernel
module Trace = Dlink_pipeline.Trace
module Counters = Dlink_uarch.Counters
module Record = Dlink_trace.Record
module Replay = Dlink_trace.Replay
module Latency = Dlink_stats.Latency
module Arrival = Dlink_util.Arrival

(* Measured requests per program in the recording, replay and interpreter
   probes; queue, recorder and arrival probes cycle the resulting service
   times up to [pushes] requests. *)
let probe_requests = 200
let pushes = 200_000
let dynload_passes = 20

(* A probe runs at least [reps] times and at least [min_total_ns] in all
   (a probe that alone takes [reps * min_total_ns] runs fewer times), and
   reports the median run. *)
let reps = 3
let min_total_ns = 50e6

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, float_of_int (Span.now_ns () - t0))

(* [repeat prepare]: [prepare ()] builds fresh state untimed and returns
   the thunk to time; the result is the median ns of that thunk. *)
let repeat prepare =
  let rec go acc n total =
    if (n >= reps && total >= min_total_ns)
       || total >= float_of_int reps *. min_total_ns
    then median acc
    else
      let run = prepare () in
      let (), t = timed run in
      go (t :: acc) (n + 1) (total +. t)
  in
  go [] 0 0.0

let repeat_ f = repeat (fun () -> f)

(* Minor-heap words [f] allocates on this domain. *)
let alloc_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

type program = {
  w : Workload.t;
  tr : Trace.t;
  events : int;
  services : int array;  (** base-mode service cycles per measured request *)
}

let replay_all m tr () =
  let c = Trace.Cursor.create tr in
  for r = 0 to Trace.n_requests tr - 1 do
    Kernel.replay_request m c r
  done

let base_services tr =
  let m = Replay.make_machine ~mode:Sim.Base () in
  let c = Trace.Cursor.create tr in
  let counters = Kernel.counters m in
  let all =
    Array.init (Trace.n_requests tr) (fun r ->
        let before = counters.Counters.cycles in
        Kernel.replay_request m c r;
        counters.Counters.cycles - before)
  in
  let warmup = Trace.warmup tr in
  Array.sub all warmup (Array.length all - warmup)

let record w () = Record.record ~mode:Sim.Base ~requests:probe_requests w

let program w =
  let tr = record w () in
  { w; tr; events = Trace.n_events tr; services = base_services tr }

let mean_service p =
  max 1 (Array.fold_left ( + ) 0 p.services / max 1 (Array.length p.services))

(* The interpreter with the full pipeline behind it, over the warmup and
   probe requests; a fresh simulator per run.  Returns instructions,
   median ns and minor words of one run. *)
let interpreter (w : Workload.t) =
  let calls sim () =
    let call i =
      let rq = w.gen_request i in
      Sim.call sim ~mname:rq.mname ~fname:rq.fname
    in
    for i = 0 to w.warmup_requests - 1 do call (-1 - i) done;
    for i = 0 to probe_requests - 1 do call i done
  in
  let fresh () = Sim.create ~func_align:w.func_align ~mode:Sim.Base w.objs in
  let ns = repeat (fun () -> calls (fresh ())) in
  let sim = fresh () in
  let words = alloc_words (calls sim) in
  (float_of_int (Sim.counters sim).instructions, ns, words)

let run ~seed (wl : Ops.workload) =
  let metrics = ref [] in
  let put k v = metrics := (k, v) :: !metrics in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let ws = wl.programs ~seed in
  (* dlink_linker: load/link of every program. *)
  put "linker.load_link_ms"
    (sum (fun w -> repeat_ (fun () -> Ops.link_check w) /. 1e6) ws);
  (* dlink_trace: recording, and the recorded stream's size. *)
  let progs = List.map program ws in
  let events = sum (fun p -> float_of_int p.events) progs in
  put "trace.record_ns_per_event"
    (sum (fun p -> repeat_ (fun () -> ignore (record p.w ()))) progs /. events);
  put "trace.bytes_per_event"
    (sum (fun p -> float_of_int (Trace.storage_bytes p.tr)) progs /. events);
  (* dlink_pipeline: replay of the recorded stream. *)
  let replay mode =
    sum
      (fun p ->
        repeat (fun () -> replay_all (Replay.make_machine ~mode ()) p.tr))
      progs
  in
  put "pipeline.replay_ns_per_event.base" (replay Sim.Base /. events);
  put "pipeline.replay_ns_per_event.enhanced" (replay Sim.Enhanced /. events);
  put "pipeline.replay_alloc_words_per_event"
    (sum
       (fun p ->
         alloc_words (replay_all (Replay.make_machine ~mode:Sim.Base ()) p.tr))
       progs
    /. events);
  (* dlink_mach: the interpreter. *)
  let interp = List.map (fun p -> interpreter p.w) progs in
  let insns = sum (fun (i, _, _) -> i) interp in
  put "mach.step_ns" (sum (fun (_, ns, _) -> ns) interp /. insns);
  put "mach.alloc_words_per_insn" (sum (fun (_, _, wd) -> wd) interp /. insns);
  (* Serving layers over the first program's service stream: queue engine,
     latency recorder, arrival generator. *)
  let p = List.hd progs in
  let mean = mean_service p in
  let cfg =
    {
      Serve.default_config with
      requests = pushes;
      load = 0.9;
      seed;
      queue_cap = 64;
    }
  in
  let lats = Array.make pushes 0 in
  let served = ref 0 in
  let sq =
    Serve.stream_queue ~cfg ~mean_service:mean ~sink:(fun ~req:_ ~lat ~wait:_ ->
        lats.(!served) <- lat;
        incr served)
  in
  let n_svc = Array.length p.services in
  let (), ns =
    timed (fun () ->
        for i = 0 to pushes - 1 do
          Serve.stream_push sq ~req:i ~service:p.services.(i mod n_svc)
        done)
  in
  put "serve.queue_push_ns" (ns /. float_of_int pushes);
  let us = Array.init !served (fun i -> Workload.cycles_to_us p.w lats.(i)) in
  let recorder = Latency.create () in
  let (), ns = timed (fun () -> Array.iter (Latency.record recorder) us) in
  put "stats.latency_record_ns" (ns /. float_of_int (max 1 !served));
  let quantile_calls = 1000 in
  put "stats.quantile_ms"
    (repeat_ (fun () ->
         for _ = 1 to quantile_calls do
           ignore
             (Latency.p50 recorder +. Latency.p99 recorder
            +. Latency.p999 recorder)
         done)
    /. float_of_int (3 * quantile_calls) /. 1e6);
  let g =
    Arrival.gen ~seed ~mean_gap:(float_of_int mean /. 0.9) Arrival.Poisson
  in
  let (), ns =
    timed (fun () ->
        for _ = 1 to pushes do
          ignore (Arrival.next g)
        done)
  in
  put "util.arrival_ns" (ns /. float_of_int pushes);
  (* dlink_linker runtime loading, on the churn scenario's plugins. *)
  let scen = Dlink_workloads.Churn.scenario () in
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding scen in
  (* Each pass opens every plugin, then closes them all; per-call time is
     a pass's total over the plugin count, median over the passes. *)
  let opens = ref [] and closes = ref [] in
  let per_call ns = ns /. float_of_int (Array.length scen.plugins) in
  for _ = 1 to dynload_passes do
    let hs, ns =
      timed (fun () -> Array.map (Dynload.dlopen m.dynload) scen.plugins)
    in
    opens := per_call ns :: !opens;
    let (), ns = timed (fun () -> Array.iter (Dynload.dlclose m.dynload) hs) in
    closes := per_call ns :: !closes
  done;
  put "linker.dlopen_us" (median !opens /. 1e3);
  put "linker.dlclose_us" (median !closes /. 1e3);
  List.rev !metrics
