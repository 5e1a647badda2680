open Dlink_uarch
module Arrival = Dlink_util.Arrival
module Dpool = Dlink_util.Dpool
module Json = Dlink_util.Json
module Rng = Dlink_util.Rng
module Site_hash = Dlink_util.Site_hash
module Latency = Dlink_stats.Latency
module Kernel = Dlink_pipeline.Kernel

(* Open-loop serving cells: the driver that turns "skip mechanism saves X
   PKI" into "skip mechanism buys Y% more requests/sec at the same p99".

   A cell fixes a workload, a link mode, an offered load, an arrival
   process, and a flush policy, then plays an open-loop client against a
   single-server bounded admission queue whose service times come from
   actually executing each request on the pipeline kernel — so service
   depends on the link mode and on the microarchitectural state carried
   across requests, exactly like the closed-loop experiments.  Request
   latency = queue wait + service, in simulated cycles; the host clock
   never enters, so every cell is bit-reproducible from its seed.

   The cell is a trace-driven queueing simulation: the execution stream
   is always the full closed-loop request sequence (flush policy keyed by
   stream index), yielding a per-request service-time vector — the
   service stream — and the bounded queue is pure arithmetic over that
   vector plus the arrival times.  Admission drops therefore affect
   queueing only, never machine state, so a service stream depends on
   (mode, flush) alone: it is executed once and shared by every load and
   arrival process, and the generate source here ({!generate_stream},
   over {!Sim}) and the packed-trace replay source
   ({!Dlink_trace.Serve_replay}) yield bit-identical cells because the
   stream reduces to the kernel equivalence the pipeline matrix already
   proves. *)

(* ------------------------------------------------------------------ *)
(* Flush policy: what happens to the server's microarchitectural state
   every [flush_every] served requests — nothing, a full flush (untagged
   hardware), or an ASID-retaining switch (tagged hardware).  Models a
   co-scheduled tenant touching the core between bursts of our requests. *)

type flush = No_flush | Flush | Asid

let flush_names = [ "none"; "flush"; "asid" ]

let flush_to_string = function
  | No_flush -> "none"
  | Flush -> "flush"
  | Asid -> "asid"

let flush_of_string = function
  | "none" -> Some No_flush
  | "flush" -> Some Flush
  | "asid" -> Some Asid
  | _ -> None

type config = {
  mode : Sim.mode;
  load : float;  (** offered load as a fraction of base-mode capacity *)
  arrival : Arrival.process;
  queue_cap : int;
  requests : int;
  flush : flush;
  flush_every : int;
  seed : int;
}

let default_config =
  {
    mode = Sim.Base;
    load = 0.8;
    arrival = Arrival.Poisson;
    queue_cap = 64;
    requests = 400;
    flush = No_flush;
    flush_every = 32;
    seed = 42;
  }

let check_config cfg =
  if not (Float.is_finite cfg.load) || cfg.load <= 0.0 then
    invalid_arg "Serve: load must be a positive real";
  if cfg.queue_cap <= 0 then invalid_arg "Serve: queue_cap must be positive";
  if cfg.requests < 0 then invalid_arg "Serve: requests must be non-negative";
  if cfg.flush_every <= 0 then invalid_arg "Serve: flush_every must be positive"

(* ------------------------------------------------------------------ *)
(* The queue engine: a single-server bounded FIFO driven by pushes — the
   caller feeds service times one request at a time, in request-index
   order, and the engine folds each served request into a
   caller-provided sink.  Admission is lazy, as in [Multi.quantum_open]:
   all arrivals up to the current virtual time are admitted (or dropped
   at a full queue) immediately before each service starts, which
   reproduces exactly the occupancy a real-time interleaving would have
   seen because the queue only drains at those same instants.

   Why pushing index [k] can resolve [k]'s fate immediately: arrivals are
   sorted and the queue is FIFO, so among admitted requests serve order
   equals index order.  At [stream_push k], every index < k has been
   served or dropped, hence [k] is either at the head of the queue
   (serve), not yet arrived with an idle server (jump to its arrival and
   admit), or was dropped at a full queue by an earlier admission scan.
   [test_serve] pins the engine against an array-based reference queue
   over random cells.

   The engine also hosts the closed-loop client population
   ([Arrival.Closed]): [clients] users each wait for their request's
   completion, think for an exponentially distributed time, and
   re-arrive.  Arrivals are coupled to completions and cannot be
   precomputed ([Arrival.times] raises) — the engine pops the earliest
   client ready time as request [k]'s arrival (a client's next ready
   time is >= its request's completion >= every pending ready time, so
   arrivals stay sorted and FIFO order is again index order), serves at
   [max now arrival], and pushes the client back at completion + think.
   The population bound makes admission self-throttling: at most
   [clients] requests are ever outstanding, so nothing is dropped and
   [queue_cap] never binds.  The think-time mean follows the interactive
   response-time law, Z = S * (clients / load - 1), so that a closed
   cell at [load] offers the same arrival rate (load / S) as an open
   cell at the same load while the server keeps up — past the knee the
   population throttles instead of queueing without bound. *)

type stream_sink = req:int -> lat:int -> wait:int -> unit

type stream_open = {
  so_gen : Arrival.gen;
  so_q : (int * int) Queue.t;  (* (index, arrival) admitted, FIFO *)
  mutable so_next : int;  (* next index not yet pulled from the generator *)
  mutable so_next_arr : int;  (* its arrival time; valid while so_next < n *)
}

(* Binary min-heap of client ready times (closed loop).  Clients are
   statistically indistinguishable — each draws its next think time at
   completion — so bare ready times suffice. *)
type stream_heap = { mutable h_n : int; h_ts : int array }

let heap_push h x =
  let ts = h.h_ts in
  let i = ref h.h_n in
  h.h_n <- h.h_n + 1;
  ts.(!i) <- x;
  while !i > 0 && ts.((!i - 1) / 2) > ts.(!i) do
    let p = (!i - 1) / 2 in
    let tmp = ts.(p) in
    ts.(p) <- ts.(!i);
    ts.(!i) <- tmp;
    i := p
  done

let heap_pop h =
  let ts = h.h_ts in
  let top = ts.(0) in
  h.h_n <- h.h_n - 1;
  ts.(0) <- ts.(h.h_n);
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < h.h_n && ts.(l) < ts.(!m) then m := l;
    if r < h.h_n && ts.(r) < ts.(!m) then m := r;
    if !m = !i then sifting := false
    else begin
      let tmp = ts.(!m) in
      ts.(!m) <- ts.(!i);
      ts.(!i) <- tmp;
      i := !m
    end
  done;
  top

type stream_closed = {
  sc_ready : stream_heap;
  sc_rng : Rng.t;
  sc_think_mean : float;
}

type stream_source = Src_open of stream_open | Src_closed of stream_closed

type stream_queue = {
  sq_cap : int;
  sq_n : int;
  sq_sink : stream_sink;
  sq_src : stream_source;
  mutable sq_now : int;
  mutable sq_busy : int;
  mutable sq_served : int;
  mutable sq_dropped : int;
}

let stream_queue ~cfg ~mean_service ~sink =
  check_config cfg;
  if mean_service <= 0 then
    invalid_arg "Serve.stream_queue: mean_service must be positive";
  let src =
    match cfg.arrival with
    | Arrival.Closed { clients } ->
        if clients <= 0 then
          invalid_arg "Serve.stream_queue: clients must be positive";
        let think_mean =
          Float.max 0.0
            (float_of_int mean_service
            *. ((float_of_int clients /. cfg.load) -. 1.0))
        in
        let rng = Rng.create (Site_hash.mix2 cfg.seed 0xc1d) in
        let ready = { h_n = 0; h_ts = Array.make clients 0 } in
        (* Initial think draws stagger the population's first arrivals. *)
        for _ = 1 to clients do
          let t =
            if think_mean > 0.0 then Rng.exponential rng ~mean:think_mean
            else 0.0
          in
          heap_push ready (int_of_float t)
        done;
        Src_closed { sc_ready = ready; sc_rng = rng; sc_think_mean = think_mean }
    | p ->
        let gen =
          Arrival.gen ~seed:cfg.seed
            ~mean_gap:(float_of_int mean_service /. cfg.load)
            p
        in
        let o =
          { so_gen = gen; so_q = Queue.create (); so_next = 0; so_next_arr = 0 }
        in
        if cfg.requests > 0 then o.so_next_arr <- Arrival.next gen;
        Src_open o
  in
  {
    sq_cap = cfg.queue_cap;
    sq_n = cfg.requests;
    sq_sink = sink;
    sq_src = src;
    sq_now = 0;
    sq_busy = 0;
    sq_served = 0;
    sq_dropped = 0;
  }

let stream_push t ~req:k ~service:s =
  if s < 0 then invalid_arg "Serve.stream_push: negative service time";
  match t.sq_src with
  | Src_open o ->
      let admit () =
        while o.so_next < t.sq_n && o.so_next_arr <= t.sq_now do
          if Queue.length o.so_q < t.sq_cap then
            Queue.add (o.so_next, o.so_next_arr) o.so_q
          else t.sq_dropped <- t.sq_dropped + 1;
          o.so_next <- o.so_next + 1;
          if o.so_next < t.sq_n then o.so_next_arr <- Arrival.next o.so_gen
        done
      in
      admit ();
      if Queue.is_empty o.so_q && o.so_next = k then begin
        (* Server idle and k not yet arrived: idle until its arrival. *)
        if o.so_next_arr > t.sq_now then t.sq_now <- o.so_next_arr;
        admit ()
      end;
      (match Queue.peek_opt o.so_q with
      | Some (r, arr) when r = k ->
          ignore (Queue.pop o.so_q);
          let start = t.sq_now in
          t.sq_busy <- t.sq_busy + s;
          t.sq_now <- t.sq_now + s;
          t.sq_served <- t.sq_served + 1;
          t.sq_sink ~req:k ~lat:(t.sq_now - arr) ~wait:(start - arr)
      | _ -> (* k was dropped by an earlier admission scan *) ())
  | Src_closed c ->
      let arr = heap_pop c.sc_ready in
      let start = if arr > t.sq_now then arr else t.sq_now in
      t.sq_busy <- t.sq_busy + s;
      t.sq_now <- start + s;
      t.sq_served <- t.sq_served + 1;
      t.sq_sink ~req:k ~lat:(t.sq_now - arr) ~wait:(start - arr);
      let think =
        if c.sc_think_mean > 0.0 then
          int_of_float (Rng.exponential c.sc_rng ~mean:c.sc_think_mean)
        else 0
      in
      heap_push c.sc_ready (t.sq_now + think)

let stream_served t = t.sq_served
let stream_dropped t = t.sq_dropped
let stream_busy_cycles t = t.sq_busy
let stream_span_cycles t = t.sq_now

(* ------------------------------------------------------------------ *)

type rtype_stats = {
  rt_name : string;
  rt_served : int;
  rt_mean_us : float;
  rt_p99_us : float;
}

type cell = {
  cfg : config;
  workload_name : string;
  mean_service_cycles : int;  (** base-mode calibration behind [load] *)
  served : int;
  dropped : int;
  lat_cycles : int array;  (** per served request, serve order *)
  recorder : Latency.t;  (** the same latencies in scaled microseconds *)
  offered_rps : float;
  goodput_rps : float;
  util : float;
  span_us : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  mean_wait_us : float;
  by_rtype : rtype_stats array;
  lat_fingerprint : int;
      (** order-sensitive digest of (req, lat, wait) in serve order *)
  counters : Counters.t;
}

(* Order-sensitive digest of the served-request stream: folding (request
   index, latency, wait) in serve order means two drivers agree iff every
   per-request outcome matches exactly. *)
let fp_fold acc ~req ~lat ~wait =
  Site_hash.mix2 acc (Site_hash.mix2 (Site_hash.mix2 req lat) wait)

(* ------------------------------------------------------------------ *)
(* Service streams.  A stream is one closed-loop execution of the
   measured request sequence under a (mode, flush) pair: per-request
   service cycles in request-index order, plus the measurement-window
   counters of the same pass.  The Base/No_flush stream doubles as the
   capacity calibration — its mean is exactly [calibrate_generate]'s,
   since the request boundaries it notes only fire a tap. *)

type stream = { services : int array; counters : Counters.t }

let stream_mean st =
  max 1 (Array.fold_left ( + ) 0 st.services / max 1 (Array.length st.services))

(* [Some retain_asid] when the flush policy switches context before
   stream request [i]. *)
let switch_before ~flush ~flush_every i =
  match flush with
  | No_flush -> None
  | (Flush | Asid) when i = 0 || i mod flush_every <> 0 -> None
  | Flush -> Some false
  | Asid -> Some true

(* Base-mode capacity calibration: the mean service time (cycles per
   request, closed loop) every load level is expressed against.  Always
   measured in [Base] so "load 1.0" means the same client behavior for
   every mode under comparison — the enhanced modes then run the same
   arrival sequence with shorter service times, which is precisely the
   capacity head-room being measured. *)

let calibrate_generate ?ucfg ?skip_cfg ?requests ?warmup (w : Workload.t) =
  let n = Option.value requests ~default:w.Workload.default_requests in
  let r = Experiment.run ?ucfg ?skip_cfg ~requests:n ?warmup ~mode:Sim.Base w in
  max 1 (r.Experiment.counters.Counters.cycles / max 1 n)

let generate_stream ?ucfg ?skip_cfg ~mode ~flush ~flush_every ~requests
    (w : Workload.t) =
  let sim =
    Sim.create ?ucfg ?skip_cfg ~func_align:w.Workload.func_align ~mode
      w.Workload.objs
  in
  let kernel = Sim.kernel sim in
  let call (rq : Workload.request) =
    Kernel.note_boundary kernel ~rtype:rq.Workload.rtype;
    Sim.call sim ~mname:rq.Workload.mname ~fname:rq.Workload.fname
  in
  for i = 0 to w.Workload.warmup_requests - 1 do
    call (w.Workload.gen_request (-1 - i))
  done;
  Sim.mark_measurement_start sim;
  let counters = Sim.counters sim in
  let services = Array.make requests 0 in
  for i = 0 to requests - 1 do
    (match switch_before ~flush ~flush_every i with
    | Some retain_asid -> Sim.context_switch ~retain_asid sim
    | None -> ());
    let before = counters.Counters.cycles in
    call (w.Workload.gen_request i);
    services.(i) <- counters.Counters.cycles - before
  done;
  { services; counters = Sim.measured_counters sim }

(* One cell from its service stream: O(requests) queue arithmetic plus
   per-request accounting (log-bucket recorder, per-rtype buckets, wait
   sum, fingerprint, raw latency vector). *)
let cell_of_stream ~cfg ~mean_service (w : Workload.t) st =
  let recorder = Latency.create () in
  let rt =
    Array.map (fun _ -> Latency.create ()) w.Workload.request_type_names
  in
  let lat_cycles = Array.make cfg.requests 0 in
  let kept = ref 0 and wait_cycles = ref 0 and fp = ref 0 in
  let sink ~req ~lat ~wait =
    let us = Workload.cycles_to_us w lat in
    Latency.record recorder us;
    Latency.record rt.((w.Workload.gen_request req).Workload.rtype) us;
    wait_cycles := !wait_cycles + wait;
    fp := fp_fold !fp ~req ~lat ~wait;
    lat_cycles.(!kept) <- lat;
    incr kept
  in
  let sq = stream_queue ~cfg ~mean_service ~sink in
  Array.iteri (fun req service -> stream_push sq ~req ~service) st.services;
  let served = sq.sq_served in
  let span = sq.sq_now in
  let span_s = Workload.cycles_to_us w span *. 1e-6 in
  let gap_s =
    Workload.cycles_to_us w
      (int_of_float (float_of_int mean_service /. cfg.load))
    *. 1e-6
  in
  {
    cfg;
    workload_name = w.Workload.wname;
    mean_service_cycles = mean_service;
    served;
    dropped = sq.sq_dropped;
    lat_cycles = Array.sub lat_cycles 0 served;
    recorder;
    offered_rps = (if gap_s > 0.0 then 1.0 /. gap_s else Float.nan);
    goodput_rps = (if span_s > 0.0 then float_of_int served /. span_s else 0.0);
    util =
      (if span > 0 then float_of_int sq.sq_busy /. float_of_int span else 0.0);
    span_us = Workload.cycles_to_us w span;
    mean_us = Latency.mean recorder;
    p50_us = Latency.p50 recorder;
    p99_us = Latency.p99 recorder;
    p999_us = Latency.p999 recorder;
    mean_wait_us =
      (if served = 0 then Float.nan
       else Workload.cycles_to_us w !wait_cycles /. float_of_int served);
    by_rtype =
      Array.mapi
        (fun i name ->
          {
            rt_name = name;
            rt_served = Latency.count rt.(i);
            rt_mean_us = Latency.mean rt.(i);
            rt_p99_us = Latency.p99 rt.(i);
          })
        w.Workload.request_type_names;
    lat_fingerprint = !fp;
    counters = st.counters;
  }

(* The serving driver shared by every entry point: execute each distinct
   (mode, flush) stream once — the calibration stream included unless
   [mean_service] is given — on the domain pool, then run every cell's
   queue arithmetic over its stream.  A stream is inherently sequential
   (request i+1's service depends on the state request i left behind),
   so parallelism is across distinct streams and across cells only; the
   results are identical at any [jobs]. *)

let calibration_key = (Sim.Base, No_flush)

let stream_keys ?mean_service cfgs =
  let keys = List.map (fun c -> (c.mode, c.flush)) cfgs in
  let keys = if mean_service = None then calibration_key :: keys else keys in
  List.rev
    (List.fold_left
       (fun acc k -> if List.mem k acc then acc else k :: acc)
       [] keys)

let run_cells ?(jobs = 1) ?mean_service ~stream (w : Workload.t) cfgs =
  List.iter check_config cfgs;
  (match cfgs with
  | c :: rest ->
      if
        List.exists
          (fun c' ->
            c'.requests <> c.requests || c'.flush_every <> c.flush_every)
          rest
      then
        invalid_arg
          "Serve.run_cells: cells must share requests and flush_every"
  | [] -> ());
  let keys = stream_keys ?mean_service cfgs in
  let streams =
    List.combine keys
      (Dpool.map ~jobs (fun (mode, flush) -> stream ~mode ~flush) keys)
  in
  let mean_service =
    match mean_service with
    | Some m -> m
    | None -> stream_mean (List.assoc calibration_key streams)
  in
  Dpool.map ~jobs
    (fun cfg ->
      cell_of_stream ~cfg ~mean_service w
        (List.assoc (cfg.mode, cfg.flush) streams))
    cfgs

let run_cell_stream ?ucfg ?skip_cfg ?mean_service ?jobs ~cfg (w : Workload.t) =
  let stream ~mode ~flush =
    generate_stream ?ucfg ?skip_cfg ~mode ~flush ~flush_every:cfg.flush_every
      ~requests:cfg.requests w
  in
  match run_cells ?jobs ?mean_service ~stream w [ cfg ] with
  | [ c ] -> c
  | _ -> assert false

(* ------------------------------------------------------------------ *)

let cell_json ?(hist = false) (c : cell) =
  let f v = Json.Float v in
  let fields =
    [
      ("workload", Json.String c.workload_name);
      ("mode", Json.String (Sim.mode_to_string c.cfg.mode));
      ("arrival", Json.String (Arrival.to_string c.cfg.arrival));
      ("flush", Json.String (flush_to_string c.cfg.flush));
      ("load", f c.cfg.load);
      ("queue_cap", Json.Int c.cfg.queue_cap);
      ("requests", Json.Int c.cfg.requests);
      ("seed", Json.Int c.cfg.seed);
      ("mean_service_cycles", Json.Int c.mean_service_cycles);
      ("served", Json.Int c.served);
      ("dropped", Json.Int c.dropped);
      ("offered_rps", f c.offered_rps);
      ("goodput_rps", f c.goodput_rps);
      ("util", f c.util);
      ("span_us", f c.span_us);
      ("mean_us", f c.mean_us);
      ("mean_wait_us", f c.mean_wait_us);
      ("p50_us", f c.p50_us);
      ("p99_us", f c.p99_us);
      ("p999_us", f c.p999_us);
      ("lat_fingerprint", Json.Int c.lat_fingerprint);
      ( "by_rtype",
        Json.List
          (Array.to_list
             (Array.map
                (fun rt ->
                  Json.Obj
                    [
                      ("rtype", Json.String rt.rt_name);
                      ("served", Json.Int rt.rt_served);
                      ("mean_us", f rt.rt_mean_us);
                      ("p99_us", f rt.rt_p99_us);
                    ])
                c.by_rtype)) );
    ]
  in
  let fields =
    if hist then
      fields
      @ [
          ( "hist_us",
            Json.List
              (List.map
                 (fun (lo, hi, n) ->
                   Json.List [ f lo; f hi; Json.Int n ])
                 (Latency.buckets c.recorder)) );
        ]
    else fields
  in
  Json.Obj fields

(* Stable cell label for sweep output and bench leaf naming:
   "<mode>/<arrival>/<flush>@<load>". *)
let cell_label (c : cell) =
  Printf.sprintf "%s_%s_%s_load%g"
    (Sim.mode_to_string c.cfg.mode)
    (Arrival.to_string c.cfg.arrival)
    (flush_to_string c.cfg.flush)
    c.cfg.load
