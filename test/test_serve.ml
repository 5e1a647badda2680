(* Serving-stack tests: arrival processes (open and closed loop), the
   push-based queue engine against an array-based reference queue, cells
   (generate vs replay bit-identity, sweep = per-cell, calibration
   identity, jobs invariance, determinism), the multi-core open-loop
   topology, and the kernel's request-boundary tap. *)

module Rng = Dlink_util.Rng
module Arrival = Dlink_util.Arrival
module Latency = Dlink_stats.Latency
module Counters = Dlink_uarch.Counters
module Site_hash = Dlink_util.Site_hash
module Skip = Dlink_pipeline.Skip
module Sim = Dlink_core.Sim
module Experiment = Dlink_core.Experiment
module Serve = Dlink_core.Serve
module Workload = Dlink_core.Workload
module Registry = Dlink_workloads.Registry
module Scheduler = Dlink_sched.Scheduler
module Policy = Dlink_sched.Policy
module Kernel = Dlink_pipeline.Kernel
module Tcache = Dlink_trace.Cache
module Replay = Dlink_trace.Replay
module Serve_replay = Dlink_trace.Serve_replay

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let wl name =
  match Registry.find name with
  | Some f -> f ()
  | None -> Alcotest.failf "unknown workload %s" name

(* ---------------- arrivals ---------------- *)

let test_arrival_deterministic () =
  List.iter
    (fun p ->
      let a = Arrival.times ~seed:7 ~mean_gap:100.0 ~n:500 p in
      let b = Arrival.times ~seed:7 ~mean_gap:100.0 ~n:500 p in
      checkb (Arrival.to_string p ^ " same seed same times") true (a = b);
      let c = Arrival.times ~seed:8 ~mean_gap:100.0 ~n:500 p in
      checkb (Arrival.to_string p ^ " different seed differs") true (a <> c))
    [ Arrival.Poisson; Arrival.default_mmpp ]

let test_arrival_sorted_nonneg () =
  List.iter
    (fun p ->
      let a = Arrival.times ~seed:3 ~mean_gap:50.0 ~n:2000 p in
      checki "length" 2000 (Array.length a);
      Array.iteri
        (fun i x ->
          checkb "non-negative" true (x >= 0);
          if i > 0 then checkb "sorted" true (x >= a.(i - 1)))
        a)
    [ Arrival.Poisson; Arrival.default_mmpp ]

let test_arrival_mean_gap () =
  List.iter
    (fun p ->
      let n = 20_000 in
      let a = Arrival.times ~seed:11 ~mean_gap:200.0 ~n p in
      let mean = float_of_int a.(n - 1) /. float_of_int n in
      checkb
        (Printf.sprintf "%s long-run mean gap ~200 (got %.1f)"
           (Arrival.to_string p) mean)
        true
        (abs_float (mean -. 200.0) < 20.0))
    [ Arrival.Poisson; Arrival.default_mmpp ]

let test_arrival_rejects_bad () =
  checkb "bad name" true (Arrival.of_string "uniform" = None);
  (match Arrival.times ~seed:1 ~mean_gap:0.0 ~n:3 Arrival.Poisson with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mean_gap 0 should raise");
  match Arrival.times ~seed:1 ~mean_gap:Float.nan ~n:3 Arrival.Poisson with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan mean_gap should raise"

let test_closed_arrival_spec () =
  (match Arrival.of_string "closed:32" with
  | Some (Arrival.Closed { clients = 32 }) -> ()
  | _ -> Alcotest.fail "closed:32 should parse");
  checkb "round-trips" true
    (Arrival.of_string (Arrival.to_string (Arrival.Closed { clients = 7 }))
    = Some (Arrival.Closed { clients = 7 }));
  checkb "closed:0 rejected" true (Arrival.of_string "closed:0" = None);
  checkb "closed:-3 rejected" true (Arrival.of_string "closed:-3" = None);
  checkb "closed:x rejected" true (Arrival.of_string "closed:x" = None);
  (* Closed arrivals are coupled to completions: only the streaming queue
     engine can generate them, never the standalone arrival API. *)
  (match
     Arrival.times ~seed:1 ~mean_gap:10.0 ~n:5 (Arrival.Closed { clients = 4 })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "times on closed should raise");
  match Arrival.gen ~seed:1 ~mean_gap:10.0 (Arrival.Closed { clients = 4 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gen on closed should raise"

(* ---------------- reference queue ---------------- *)

(* Array-based single-server bounded FIFO over sorted absolute
   [arrivals]: the reference the push-based [Serve.stream_queue] is
   pinned against.  [service ~nth ~req] returns request [req]'s service
   time when it is served [nth]; an arrival finding the queue full is
   dropped; an empty queue idles to the next arrival.  Admission is lazy:
   every arrival up to the current time is admitted just before each
   service starts. *)

type queue_stats = {
  q_served : int;
  q_dropped : int;
  q_reqs : int array;  (** request index per served request, serve order *)
  q_lat_cycles : int array;  (** queue wait + service, serve order *)
  q_wait_cycles : int array;
  q_busy : int;
  q_span : int;  (** completion time of the last served request *)
}

let simulate_queue ~arrivals ~queue_cap ~service =
  let n = Array.length arrivals in
  let q = Queue.create () in
  let reqs = ref [] and lats = ref [] and waits = ref [] in
  let now = ref 0 and busy = ref 0 in
  let served = ref 0 and dropped = ref 0 and next = ref 0 in
  let admit () =
    while !next < n && arrivals.(!next) <= !now do
      if Queue.length q < queue_cap then Queue.add !next q else incr dropped;
      incr next
    done
  in
  while !served + !dropped < n do
    admit ();
    if Queue.is_empty q then begin
      if arrivals.(!next) > !now then now := arrivals.(!next);
      admit ()
    end;
    let r = Queue.pop q in
    let start = !now in
    let s = service ~nth:!served ~req:r in
    busy := !busy + s;
    now := !now + s;
    reqs := r :: !reqs;
    lats := (!now - arrivals.(r)) :: !lats;
    waits := (start - arrivals.(r)) :: !waits;
    incr served
  done;
  {
    q_served = !served;
    q_dropped = !dropped;
    q_reqs = Array.of_list (List.rev !reqs);
    q_lat_cycles = Array.of_list (List.rev !lats);
    q_wait_cycles = Array.of_list (List.rev !waits);
    q_busy = !busy;
    q_span = !now;
  }

(* One open-loop cell's queue over a service vector: arrivals from the
   cell's seed, then the reference queue. *)
let run_queue ~(cfg : Serve.config) ~mean_service ~services =
  let arrivals =
    Arrival.times ~seed:cfg.Serve.seed
      ~mean_gap:(float_of_int mean_service /. cfg.Serve.load)
      ~n:cfg.Serve.requests cfg.Serve.arrival
  in
  simulate_queue ~arrivals ~queue_cap:cfg.Serve.queue_cap
    ~service:(fun ~nth:_ ~req -> services.(req))

let fingerprint_of (qs : queue_stats) =
  let fp = ref 0 in
  for i = 0 to qs.q_served - 1 do
    fp :=
      Site_hash.mix2 !fp
        (Site_hash.mix2
           (Site_hash.mix2 qs.q_reqs.(i) qs.q_lat_cycles.(i))
           qs.q_wait_cycles.(i))
  done;
  !fp

(* ---------------- queue engine ---------------- *)

(* Constant service against a hand-computable arrival pattern. *)
let test_queue_hand_example () =
  (* service 10; arrivals at 0,2,4,100: three back-to-back, then idle. *)
  let qs =
    simulate_queue ~arrivals:[| 0; 2; 4; 100 |] ~queue_cap:8
      ~service:(fun ~nth:_ ~req:_ -> 10)
  in
  checki "served" 4 qs.q_served;
  checki "dropped" 0 qs.q_dropped;
  checkb "latencies" true (qs.q_lat_cycles = [| 10; 18; 26; 10 |]);
  checkb "waits" true (qs.q_wait_cycles = [| 0; 8; 16; 0 |]);
  checki "busy" 40 qs.q_busy;
  checki "span" 110 qs.q_span

let test_queue_drops_when_full () =
  (* cap 1: while request 0 is in service (0..100), arrivals 1,2,3 come;
     1 queues, 2 and 3 find the queue full and drop. *)
  let qs =
    simulate_queue ~arrivals:[| 0; 10; 20; 30 |] ~queue_cap:1
      ~service:(fun ~nth:_ ~req:_ -> 100)
  in
  checki "served" 2 qs.q_served;
  checki "dropped" 2 qs.q_dropped;
  checkb "served reqs" true (qs.q_reqs = [| 0; 1 |])

let test_queue_wait_plus_service () =
  let rng = Rng.create 5 in
  let arr = Arrival.times ~seed:9 ~mean_gap:30.0 ~n:300 Arrival.Poisson in
  let services = Array.init 300 (fun _ -> 1 + Rng.int rng 60) in
  let qs =
    simulate_queue ~arrivals:arr ~queue_cap:16
      ~service:(fun ~nth:_ ~req -> services.(req))
  in
  checki "conservation" 300 (qs.q_served + qs.q_dropped);
  Array.iteri
    (fun i r ->
      checki "lat = wait + service"
        (qs.q_wait_cycles.(i) + services.(r))
        qs.q_lat_cycles.(i))
    qs.q_reqs

(* ---------------- cells: generate vs replay, determinism ------------- *)

let mk_cfg ?(mode = Sim.Enhanced) ?(load = 0.9) ?(flush = Serve.No_flush)
    ?(arrival = Arrival.Poisson) () =
  {
    Serve.mode;
    load;
    arrival;
    flush;
    flush_every = 7;
    requests = 60;
    queue_cap = 8;
    seed = 5;
  }

let msg_of (cfg : Serve.config) =
  Printf.sprintf "%s/%s/%s@%g"
    (Sim.mode_to_string cfg.Serve.mode)
    (Serve.flush_to_string cfg.Serve.flush)
    (Arrival.to_string cfg.Serve.arrival)
    cfg.Serve.load

(* Two cells agree on every per-request outcome and on the measured
   counters. *)
let check_same_cell msg (a : Serve.cell) (b : Serve.cell) =
  checki (msg ^ ": served") a.Serve.served b.Serve.served;
  checki (msg ^ ": dropped") a.Serve.dropped b.Serve.dropped;
  checkb (msg ^ ": lat_cycles") true (a.Serve.lat_cycles = b.Serve.lat_cycles);
  checki (msg ^ ": fingerprint") a.Serve.lat_fingerprint
    b.Serve.lat_fingerprint;
  checkb (msg ^ ": counters") true (a.Serve.counters = b.Serve.counters)

let test_cell_generate_replay_identical () =
  Tcache.clear ();
  let w = wl "synth" in
  let mean_service = Serve.calibrate_generate ~requests:60 w in
  checki "calibrations agree" mean_service
    (Serve_replay.calibrate ~requests:60 w);
  List.iter
    (fun (mode, flush, arrival) ->
      let cfg = mk_cfg ~mode ~flush ~arrival () in
      let g = Serve.run_cell_stream ~mean_service ~cfg w in
      let r = Serve_replay.run_cell ~mean_service ~cfg w in
      check_same_cell (msg_of cfg) g r;
      checkb (msg_of cfg ^ ": p99 identical") true
        (g.Serve.p99_us = r.Serve.p99_us))
    [
      (Sim.Base, Serve.No_flush, Arrival.Poisson);
      (Sim.Enhanced, Serve.No_flush, Arrival.Poisson);
      (Sim.Enhanced, Serve.Flush, Arrival.default_mmpp);
      (Sim.Eager, Serve.Asid, Arrival.Poisson);
      (Sim.Stable, Serve.No_flush, Arrival.default_mmpp);
    ]

let test_cell_deterministic () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = mk_cfg () in
  let a = Serve_replay.run_cell ~cfg w in
  let b = Serve_replay.run_cell ~cfg w in
  checkb "same seed, identical latency vector" true
    (a.Serve.lat_cycles = b.Serve.lat_cycles);
  let c = Serve_replay.run_cell ~cfg:{ cfg with Serve.seed = 6 } w in
  checkb "different seed, different arrivals" true
    (a.Serve.lat_cycles <> c.Serve.lat_cycles)

let test_cell_saturation_and_validation () =
  Tcache.clear ();
  let w = wl "synth" in
  (* Far past saturation with a tiny queue: drops must appear, and the
     queue bound caps waiting, so latency stays below cap * max service. *)
  let cfg =
    { (mk_cfg ~load:3.0 ()) with Serve.queue_cap = 2; requests = 80 }
  in
  let c = Serve_replay.run_cell ~cfg w in
  checkb "overload drops" true (c.Serve.dropped > 0);
  checki "conservation" 80 (c.Serve.served + c.Serve.dropped);
  checkb "util near 1" true (c.Serve.util > 0.8);
  (match Serve.run_cell_stream ~cfg:{ cfg with Serve.load = 0.0 } w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "load 0 should raise");
  match Serve.run_cell_stream ~cfg:{ cfg with Serve.queue_cap = 0 } w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "queue_cap 0 should raise"

let test_sweep_jobs_deterministic () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = { Serve.default_config with Serve.requests = 40; seed = 9 } in
  let loads = [ 0.7; 1.1 ] in
  let modes = [ Sim.Base; Sim.Enhanced ] in
  let flushes = [ Serve.No_flush; Serve.Flush ] in
  let seq = Serve_replay.sweep ~jobs:1 ~cfg ~loads ~modes ~flushes w in
  let par = Serve_replay.sweep ~jobs:4 ~cfg ~loads ~modes ~flushes w in
  checki "cells" 8 (List.length seq);
  List.iter2
    (fun (a : Serve.cell) (b : Serve.cell) ->
      checkb "sweep order independent of jobs" true
        (Serve.cell_label a = Serve.cell_label b);
      check_same_cell (Serve.cell_label a) a b)
    seq par

(* A sweep shares one stream per (mode, flush) across its loads; it must
   equal running each of its cells on its own — including the generate
   fallback for a replay-incompatible skip config and closed-loop
   arrivals. *)
let test_sweep_matches_cells () =
  Tcache.clear ();
  let w = wl "synth" in
  let check ?skip_cfg ~cfg ~loads ~modes ~flushes () =
    let sw = Serve_replay.sweep ?skip_cfg ~cfg ~loads ~modes ~flushes w in
    let combos =
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun flush ->
              List.map (fun load -> { cfg with Serve.mode; flush; load }) loads)
            flushes)
        modes
    in
    checki "cell count" (List.length combos) (List.length sw);
    List.iter2
      (fun cfg (c : Serve.cell) ->
        let one = Serve_replay.run_cell ?skip_cfg ~cfg w in
        checkb (msg_of cfg ^ ": same cell") true (c.Serve.cfg = cfg);
        check_same_cell (msg_of cfg) one c)
      combos sw
  in
  let cfg = { (mk_cfg ()) with Serve.requests = 50 } in
  let flushes = [ Serve.No_flush; Serve.Flush; Serve.Asid ] in
  check ~cfg ~loads:[ 0.8; 1.2 ] ~modes:[ Sim.Base; Sim.Enhanced ] ~flushes ();
  check
    ~skip_cfg:{ Skip.default_config with Skip.verify_targets = true }
    ~cfg ~loads:[ 0.8; 1.2 ] ~modes:[ Sim.Enhanced ] ~flushes ();
  check
    ~cfg:{ cfg with Serve.arrival = Arrival.Closed { clients = 3 } }
    ~loads:[ 0.9 ] ~modes:[ Sim.Base; Sim.Enhanced ]
    ~flushes:[ Serve.No_flush; Serve.Flush ] ()

(* The Base/No_flush stream is the calibration: its mean equals both
   standalone calibrations bit for bit, whichever source produced it. *)
let test_calibration_identity () =
  Tcache.clear ();
  List.iter
    (fun (name, requests) ->
      let w = wl name in
      let expect = Serve.calibrate_generate ~requests w in
      checki (name ^ ": replay calibration") expect
        (Serve_replay.calibrate ~requests w);
      let gen =
        Serve.generate_stream ~mode:Sim.Base ~flush:Serve.No_flush
          ~flush_every:7 ~requests w
      in
      checki (name ^ ": generated stream mean") expect (Serve.stream_mean gen);
      let rep =
        Serve_replay.replay_stream ~mode:Sim.Base ~flush:Serve.No_flush
          ~flush_every:7 ~requests
          (Tcache.get ~requests ~mode:Sim.Base w)
      in
      checkb (name ^ ": replayed stream = generated") true (rep = gen);
      let cell =
        Serve_replay.run_cell
          ~cfg:{ (mk_cfg ~mode:Sim.Base ()) with Serve.requests }
          w
      in
      checki (name ^ ": cell calibration") expect
        cell.Serve.mean_service_cycles)
    [ ("memcached", 40); ("synth", 60) ]

(* Beyond the trace cap a sweep generates its streams and records no
   trace at all. *)
let test_sweep_above_cap_records_nothing () =
  Tcache.clear ();
  let w = wl "synth" in
  let misses = Tcache.misses () in
  let cells =
    Serve_replay.sweep
      ~cfg:
        {
          (mk_cfg ~mode:Sim.Base ()) with
          Serve.requests = Serve_replay.trace_cell_cap + 1;
        }
      ~loads:[ 1.0 ] ~modes:[ Sim.Base ] ~flushes:[ Serve.No_flush ] w
  in
  checki "no trace recorded" misses (Tcache.misses ());
  checki "cache still empty" 0 (Tcache.footprint_bytes ());
  List.iter
    (fun (c : Serve.cell) ->
      checki "conservation"
        (Serve_replay.trace_cell_cap + 1)
        (c.Serve.served + c.Serve.dropped))
    cells

(* ---------------- streaming engine and cells ---------------- *)

(* A generated cell must equal the reference built independently: the
   stream's counters match [Experiment.run] under the same context-switch
   schedule, and the queue outcome matches the array reference queue over
   the stream's services. *)
let test_stream_matches_generate () =
  Tcache.clear ();
  let w = wl "synth" in
  let mean_service = Serve.calibrate_generate ~requests:60 w in
  List.iter
    (fun (mode, flush, arrival) ->
      let cfg = mk_cfg ~mode ~flush ~arrival () in
      let msg = msg_of cfg in
      let s = Serve.run_cell_stream ~cfg w in
      checki (msg ^ ": mean service") mean_service s.Serve.mean_service_cycles;
      let r =
        Experiment.run ~requests:60
          ?context_switch_every:
            (if flush = Serve.No_flush then None else Some 7)
          ~retain_asid:(flush = Serve.Asid) ~mode w
      in
      checkb (msg ^ ": counters") true
        (r.Experiment.counters = s.Serve.counters);
      let st =
        Serve.generate_stream ~mode ~flush ~flush_every:7 ~requests:60 w
      in
      checki (msg ^ ": services sum to cycles")
        r.Experiment.counters.Counters.cycles
        (Array.fold_left ( + ) 0 st.Serve.services);
      let qs = run_queue ~cfg ~mean_service ~services:st.Serve.services in
      checki (msg ^ ": served") qs.q_served s.Serve.served;
      checki (msg ^ ": dropped") qs.q_dropped s.Serve.dropped;
      checkb (msg ^ ": lat_cycles") true (qs.q_lat_cycles = s.Serve.lat_cycles);
      checki (msg ^ ": fingerprint") (fingerprint_of qs)
        s.Serve.lat_fingerprint;
      let recorder = Latency.create () in
      Array.iter
        (fun l -> Latency.record recorder (Workload.cycles_to_us w l))
        qs.q_lat_cycles;
      checkb (msg ^ ": quantiles") true
        (Latency.p50 recorder = s.Serve.p50_us
        && Latency.p99 recorder = s.Serve.p99_us
        && Latency.p999 recorder = s.Serve.p999_us))
    [
      (Sim.Base, Serve.No_flush, Arrival.Poisson);
      (Sim.Enhanced, Serve.No_flush, Arrival.default_mmpp);
      (Sim.Enhanced, Serve.Flush, Arrival.Poisson);
      (Sim.Eager, Serve.Asid, Arrival.Poisson);
      (Sim.Stable, Serve.No_flush, Arrival.Poisson);
    ]

let test_closed_cell () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg =
    {
      (mk_cfg ~arrival:(Arrival.Closed { clients = 4 }) ()) with
      Serve.requests = 80;
    }
  in
  let a = Serve.run_cell_stream ~cfg w in
  checki "population bound serves everything" 80 a.Serve.served;
  checki "closed loop never drops" 0 a.Serve.dropped;
  checki "latencies materialized" 80 (Array.length a.Serve.lat_cycles);
  Array.iter
    (fun l -> checkb "latency positive" true (l > 0))
    a.Serve.lat_cycles;
  let b = Serve.run_cell_stream ~cfg w in
  checkb "deterministic" true
    (a.Serve.lat_cycles = b.Serve.lat_cycles
    && a.Serve.lat_fingerprint = b.Serve.lat_fingerprint);
  let r = Serve_replay.run_cell ~cfg w in
  checkb "replay mirror identical" true
    (a.Serve.lat_cycles = r.Serve.lat_cycles
    && a.Serve.lat_fingerprint = r.Serve.lat_fingerprint
    && a.Serve.counters = r.Serve.counters)

(* Cells whose stream differs from the calibration stream run the two
   concurrently at [jobs > 1]; the outcome must not depend on it. *)
let check_jobs_invariant ?(replay = false) (cfg : Serve.config) w =
  let run jobs =
    if replay then Serve_replay.run_cell ~jobs ~cfg w
    else Serve.run_cell_stream ~jobs ~cfg w
  in
  let a = run 1 and b = run 2 in
  check_same_cell (msg_of cfg ^ " jobs 1 vs 2") a b;
  checki (msg_of cfg ^ ": calibration") a.Serve.mean_service_cycles
    b.Serve.mean_service_cycles;
  checkb (msg_of cfg ^ ": span") true (a.Serve.span_us = b.Serve.span_us)

let test_closed_jobs_invariant () =
  let w = wl "synth" in
  let cfg =
    {
      (mk_cfg ~mode:Sim.Enhanced ~arrival:(Arrival.Closed { clients = 6 }) ())
      with
      Serve.requests = 200;
    }
  in
  check_jobs_invariant cfg w;
  check_jobs_invariant ~replay:true cfg w

let test_enhanced_jobs_invariant () =
  let w = wl "synth" in
  check_jobs_invariant
    { (mk_cfg ~mode:Sim.Enhanced ~load:1.1 ()) with Serve.requests = 300 }
    w;
  let wm = wl "memcached" in
  check_jobs_invariant ~replay:true
    { (mk_cfg ~mode:Sim.Enhanced ()) with Serve.requests = 90 }
    wm

let test_flush_jobs_invariant () =
  Tcache.clear ();
  let w = wl "synth" in
  List.iter
    (fun flush ->
      let cfg =
        { (mk_cfg ~mode:Sim.Base ~flush ()) with Serve.requests = 120 }
      in
      check_jobs_invariant cfg w;
      check_jobs_invariant ~replay:true cfg w)
    [ Serve.Flush; Serve.Asid ]

(* ---------------- properties ---------------- *)

let qcheck_tests =
  [
    (* The push-based queue engine mirrors the array reference queue:
       identical served set, per-request latency and wait, drops, busy
       time, and span, for random cells. *)
    QCheck.Test.make ~name:"stream_queue mirrors run_queue" ~count:150
      QCheck.(
        quad (int_range 0 150) (int_range 1 12) (int_range 0 10_000)
          (triple (int_range 5 80) (int_range 0 3) bool))
      (fun (n, cap, seed, (mean_service, li, bursty)) ->
        let load = [| 0.5; 0.9; 1.2; 2.5 |].(li) in
        let arrival =
          if bursty then Arrival.default_mmpp else Arrival.Poisson
        in
        let cfg =
          {
            (mk_cfg ~load ~arrival ()) with
            Serve.requests = n;
            queue_cap = cap;
            seed;
          }
        in
        let rng = Rng.create (seed + 77) in
        let services = Array.init n (fun _ -> Rng.int rng 200) in
        let qs = run_queue ~cfg ~mean_service ~services in
        let got = ref [] in
        let sq =
          Serve.stream_queue ~cfg ~mean_service ~sink:(fun ~req ~lat ~wait ->
              got := (req, lat, wait) :: !got)
        in
        Array.iteri
          (fun req service -> Serve.stream_push sq ~req ~service)
          services;
        let got = Array.of_list (List.rev !got) in
        got
        = Array.init qs.q_served (fun i ->
              ( qs.q_reqs.(i),
                qs.q_lat_cycles.(i),
                qs.q_wait_cycles.(i) ))
        && Serve.stream_served sq = qs.q_served
        && Serve.stream_dropped sq = qs.q_dropped
        && Serve.stream_busy_cycles sq = qs.q_busy
        && Serve.stream_span_cycles sq = qs.q_span);
  ]

(* ---------------- boundary tap ---------------- *)

let test_boundary_tap_counts () =
  Tcache.clear ();
  let w = wl "synth" in
  let count = ref 0 and rtypes = ref [] in
  let cfg = mk_cfg () in
  let mean_service = Serve.calibrate_generate ~requests:60 w in
  (* The generate driver announces warmup + served requests with their
     request-type ids through the kernel tap.  We can't pre-install the
     tap on a driver-owned kernel, so go through Sim directly. *)
  let sim =
    Sim.create ~func_align:w.Workload.func_align ~mode:Sim.Enhanced
      w.Workload.objs
  in
  Kernel.set_boundary_tap (Sim.kernel sim)
    (Some
       (fun ~rtype ->
         incr count;
         rtypes := rtype :: !rtypes));
  let n_rt = Array.length w.Workload.request_type_names in
  for i = 0 to 9 do
    let rq = w.Workload.gen_request i in
    Kernel.note_boundary (Sim.kernel sim) ~rtype:rq.Workload.rtype;
    Sim.call sim ~mname:rq.Workload.mname ~fname:rq.Workload.fname
  done;
  checki "one boundary per request" 10 !count;
  List.iter
    (fun rt -> checkb "rtype in range" true (rt >= 0 && rt < n_rt))
    !rtypes;
  ignore mean_service;
  ignore cfg

(* ---------------- multi-core open loop ---------------- *)

let test_multi_open_loop () =
  let ws = [ wl "synth"; wl "memcached" ] in
  let requests = 30 in
  let sched =
    Scheduler.create ~requests ~policy:Policy.Asid ~quantum:4 ~cores:2 ws
  in
  let arr0 = Arrival.times ~seed:1 ~mean_gap:2000.0 ~n:requests Arrival.Poisson in
  let arr1 =
    Arrival.times ~seed:2 ~mean_gap:3000.0 ~n:requests Arrival.default_mmpp
  in
  Scheduler.set_open_loop sched ~pid:0 ~arrivals:arr0 ~queue_cap:4;
  Scheduler.set_open_loop sched ~pid:1 ~arrivals:arr1 ~queue_cap:4;
  Scheduler.run sched;
  checkb "finished" true (Scheduler.finished sched);
  List.iter
    (fun p ->
      let lats = Scheduler.latencies_cycles p in
      checki "served + dropped = requests" requests
        (Array.length lats + Scheduler.drops p);
      Array.iter (fun l -> checkb "latency positive" true (l > 0)) lats)
    (Scheduler.procs sched)

let test_multi_open_loop_deterministic () =
  let run () =
    let ws = [ wl "synth" ] in
    let sched =
      Scheduler.create ~requests:25 ~policy:Policy.Flush ~quantum:3 ~cores:1 ws
    in
    let arr = Arrival.times ~seed:4 ~mean_gap:1500.0 ~n:25 Arrival.Poisson in
    Scheduler.set_open_loop sched ~pid:0 ~arrivals:arr ~queue_cap:3;
    Scheduler.run sched;
    Scheduler.latencies_cycles (Scheduler.proc sched 0)
  in
  checkb "same config, identical open-loop latencies" true (run () = run ())

let test_multi_open_loop_rejects_bad () =
  let sched =
    Scheduler.create ~requests:10 ~policy:Policy.Asid ~quantum:2 ~cores:1
      [ wl "synth" ]
  in
  (match
     Scheduler.set_open_loop sched ~pid:0 ~arrivals:[| 0; 1 |] ~queue_cap:4
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch should raise");
  (match
     Scheduler.set_open_loop sched ~pid:0 ~arrivals:(Array.make 10 0)
       ~queue_cap:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "queue_cap 0 should raise");
  match
    Scheduler.set_open_loop sched ~pid:0 ~arrivals:[| 5; 3; 1; 0; 0; 0; 0; 0; 0; 0 |]
      ~queue_cap:4
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted arrivals should raise"

let () =
  Alcotest.run "serve"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "sorted non-negative" `Quick
            test_arrival_sorted_nonneg;
          Alcotest.test_case "mean gap" `Slow test_arrival_mean_gap;
          Alcotest.test_case "rejects bad specs" `Quick test_arrival_rejects_bad;
          Alcotest.test_case "closed-loop spec" `Quick test_closed_arrival_spec;
        ] );
      ( "queue",
        [
          Alcotest.test_case "hand example" `Quick test_queue_hand_example;
          Alcotest.test_case "drops when full" `Quick test_queue_drops_when_full;
          Alcotest.test_case "wait + service" `Quick test_queue_wait_plus_service;
        ] );
      ( "cells",
        [
          Alcotest.test_case "generate = replay" `Quick
            test_cell_generate_replay_identical;
          Alcotest.test_case "deterministic" `Quick test_cell_deterministic;
          Alcotest.test_case "saturation + validation" `Quick
            test_cell_saturation_and_validation;
          Alcotest.test_case "sweep jobs-independent" `Quick
            test_sweep_jobs_deterministic;
          Alcotest.test_case "sweep = per-cell" `Quick test_sweep_matches_cells;
          Alcotest.test_case "calibration identity" `Quick
            test_calibration_identity;
          Alcotest.test_case "sweep beyond trace cap" `Quick
            test_sweep_above_cap_records_nothing;
        ] );
      ( "stream",
        [
          Alcotest.test_case "stream = generate" `Quick
            test_stream_matches_generate;
          Alcotest.test_case "closed-loop cell" `Quick test_closed_cell;
          Alcotest.test_case "closed-loop jobs-invariant" `Quick
            test_closed_jobs_invariant;
          Alcotest.test_case "enhanced jobs-invariant" `Quick
            test_enhanced_jobs_invariant;
          Alcotest.test_case "flush jobs-invariant" `Quick
            test_flush_jobs_invariant;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "boundaries",
        [ Alcotest.test_case "tap counts" `Quick test_boundary_tap_counts ] );
      ( "multi open loop",
        [
          Alcotest.test_case "serves with drops" `Quick test_multi_open_loop;
          Alcotest.test_case "deterministic" `Quick
            test_multi_open_loop_deterministic;
          Alcotest.test_case "rejects bad args" `Quick
            test_multi_open_loop_rejects_bad;
        ] );
    ]
