(* The four benchmark workloads, each a closed batch of simulation
   operations run from one process.

   Every workload has two shapes that must produce the same digests:
   - [plain]: the entry point the library offers, called as a user would, with
     no timing inside (the end-to-end run);
   - [traced]: the same work with spans around the calls into each layer.
     Where the entry point is a thin composition of public calls
     (Serve_replay.sweep, Sched_replay.sweep) the traced shape rebuilds it
     from those calls; otherwise (Serve.run_cell_stream, Churn.run_cell)
     the whole operation is one span.

   Both shapes call [setup_done] just before the first measured request
   can execute: after workload construction and, for the replay
   workloads, after the trace is recorded into the process-wide cache
   that the entry point then reads. *)

module Counters = Dlink_uarch.Counters
module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Churn = Dlink_core.Churn
module Workload = Dlink_core.Workload
module Mode = Dlink_linker.Mode
module Policy = Dlink_sched.Policy
module Quantum_sweep = Dlink_sched.Quantum_sweep
module Cache = Dlink_trace.Cache
module Serve_replay = Dlink_trace.Serve_replay
module Sched_replay = Dlink_trace.Sched_replay
module Dpool = Dlink_util.Dpool
module W = Dlink_workloads

(* One operation's simulated outcome. *)
type op = {
  label : string;
  digest : string;
  counters : Counters.t;  (** measured window only *)
  law_ok : bool;  (** the operation's conservation law holds *)
  error : string option;  (** the exception it raised, if any *)
  counts : (string * int) list;
      (** named outcome counts (requests, dropped, switches, ...) *)
}

let count op k = Option.value (List.assoc_opt k op.counts) ~default:0

(* Every retired instruction costs at least one cycle. *)
let counters_sane (c : Counters.t) =
  c.instructions > 0 && c.cycles >= c.instructions

let serve_op (c : Serve.cell) =
  {
    label = Serve.cell_label c;
    digest = Digests.serve_cell c;
    counters = c.counters;
    law_ok = c.served + c.dropped = c.cfg.requests && counters_sane c.counters;
    error = None;
    counts = [ ("requests", c.cfg.requests); ("dropped", c.dropped) ];
  }

let churn_op (c : Churn.cell) =
  {
    label = Printf.sprintf "%s_r%d" (Mode.to_string c.link_mode) c.rate;
    digest = Digests.churn_cell c;
    counters = c.counters;
    (* Each churn event closes one resident plugin and maps a parked one. *)
    law_ok =
      c.opens = c.churn_events && c.closes = c.churn_events
      && counters_sane c.counters;
    error = None;
    counts =
      [ ("stable_hits", c.stable_hits); ("stable_misses", c.stable_misses) ];
  }

let point_label ~quantum ~policy =
  Printf.sprintf "q%d_%s" quantum (Policy.to_string policy)

(* [system] is the full counter set when the caller has it (traced
   shape); the sweep's points carry only a subset. *)
let sched_op ?system (p : Quantum_sweep.point) =
  let counters =
    match system with
    | Some c -> c
    | None ->
        let c = Counters.create () in
        c.instructions <- p.instructions;
        c.cycles <- p.cycles;
        c.abtb_clears <- p.abtb_clears;
        c.coherence_invalidations <- p.coherence_invalidations;
        c
  in
  {
    label = point_label ~quantum:p.quantum ~policy:p.policy;
    digest = Digests.sched_point p;
    counters;
    law_ok = counters_sane counters;
    error = None;
    counts = [ ("switches", p.switches) ];
  }

(* An entry-point call that raised fails every operation it was running. *)
let failed_ops labels e =
  List.map
    (fun label ->
      {
        label;
        digest = "";
        counters = Counters.create ();
        law_ok = false;
        error = Some (Printexc.to_string e);
        counts = [];
      })
    labels

let guard labels f = try f () with e -> failed_ops labels e

(* The committed [(label, digest)] pairs of one seed; empty when none are
   committed for it, and then only the conservation laws are checked. *)
type expected = (string * string) list

(* An operation fails if it raised, broke its conservation law, or,
   where digests are committed for the seed, its digest differs from its
   label's or its label has none. *)
let failed ~(expected : expected) op =
  op.error <> None || (not op.law_ok)
  || (expected <> [] && List.assoc_opt op.label expected <> Some op.digest)

(* Committed labels that no operation of the run produced: each is an
   operation that should have run and did not. *)
let missing ~(expected : expected) ops =
  List.filter_map
    (fun (label, _) ->
      if List.exists (fun op -> op.label = label) ops then None else Some label)
    expected

let count_attempted ~expected ops =
  List.length ops + List.length (missing ~expected ops)

let count_failed ~expected ops =
  List.length (List.filter (failed ~expected) ops)
  + List.length (missing ~expected ops)

type workload = {
  name : string;
  domains : int;
  plain : seed:int -> setup_done:(unit -> unit) -> op list;
  traced : seed:int -> Span.t -> setup_done:(unit -> unit) -> op list;
  programs : seed:int -> Workload.t list;
      (** the distinct simulated programs, whose data the per-layer probes
          use *)
}

(* The simulated programs are the registered workloads at their own
   default seeds, so every seed runs the same code; the benchmark seed
   chooses the inputs.  Request [i] of a run is request
   [seed * request_stride + i] of the workload's deterministic generator
   (warmup requests sit just below that), so seeds select disjoint
   stretches of one request mix and the work per run barely depends on
   the seed.  Arrival times and churn rotations take the seed directly. *)
let request_stride = 1_000_000

let inputs seed (w : Workload.t) =
  let base = seed * request_stride in
  { w with gen_request = (fun i -> w.gen_request (base + i)) }

let domains = max 1 (min 2 (Domain.recommended_domain_count ()))

(* The five stage spans every traced shape has, in order; a stage the
   workload does not run (recording on a generate-only workload) is an
   empty span.  [execute] receives its span id as the parent of the
   per-operation spans. *)
let staged tr ~setup_done ~load_link ~record ~calibrate ~execute =
  Span.with_span tr ~parent:Span.root "run" (fun run ->
      let stage name f = Span.with_span tr ~parent:run name f in
      let w = stage "load_link" (fun _ -> load_link ()) in
      stage "record" (fun _ -> record w);
      setup_done ();
      let c = stage "calibrate" (fun _ -> calibrate w) in
      let results = stage "execute" (fun id -> execute ~parent:id w c) in
      stage "report" (fun _ -> results ()))

(* ---------------------------------------------------------------- *)
(* serve_sweep: memcached, Serve_replay.sweep over modes x loads.     *)

let sweep_requests = 200
let sweep_loads = [ 0.7; 0.9; 1.0; 1.1 ]
let sweep_modes = [ Sim.Base; Sim.Enhanced ]

let sweep_cfg seed =
  {
    Serve.default_config with
    requests = sweep_requests;
    seed;
    flush = No_flush;
  }

let sweep_labels =
  List.concat_map
    (fun mode ->
      List.map
        (fun load ->
          Printf.sprintf "%s_poisson_none_load%g" (Sim.mode_to_string mode)
            load)
        sweep_loads)
    sweep_modes

let memcached seed = inputs seed (W.Memcached.workload ())

let serve_sweep =
  let record (w : Workload.t) =
    ignore (Cache.get ~requests:sweep_requests ~mode:Sim.Base w)
  in
  {
    name = "serve_sweep";
    domains;
    programs = (fun ~seed -> [ memcached seed ]);
    plain =
      (fun ~seed ~setup_done ->
        guard sweep_labels (fun () ->
            let w = memcached seed in
            record w;
            setup_done ();
            Serve_replay.sweep ~jobs:domains ~cfg:(sweep_cfg seed)
              ~loads:sweep_loads ~modes:sweep_modes ~flushes:[ Serve.No_flush ]
              w
            |> List.map serve_op));
    traced =
      (fun ~seed tr ~setup_done ->
        let cfg = sweep_cfg seed in
        guard sweep_labels (fun () ->
            staged tr ~setup_done
              ~load_link:(fun () -> memcached seed)
              ~record
              ~calibrate:(fun w ->
                Serve_replay.calibrate ~requests:sweep_requests w)
              ~execute:(fun ~parent w mean_service ->
                let traces =
                  List.map
                    (fun mode ->
                      (mode, Cache.get ~requests:sweep_requests ~mode w))
                    sweep_modes
                in
                let combos =
                  List.concat_map
                    (fun mode ->
                      List.map (fun load -> (mode, load)) sweep_loads)
                    sweep_modes
                in
                let cells =
                  Dpool.map ~jobs:domains
                    (fun (mode, load) ->
                      Span.with_span tr ~parent "serve.cell" (fun _ ->
                          Serve_replay.run_cell ~mean_service
                            ~tr:(List.assoc mode traces)
                            ~cfg:{ cfg with mode; load } w))
                    combos
                in
                fun () -> List.map serve_op cells)));
  }

(* ---------------------------------------------------------------- *)
(* serve_bigcell: synth, one long Base cell through run_cell_stream.  *)

let bigcell_requests = 25_000

let bigcell_cfg seed =
  {
    Serve.default_config with
    mode = Sim.Base;
    load = 1.0;
    requests = bigcell_requests;
    queue_cap = 64;
    flush = No_flush;
    seed;
  }

let bigcell_labels = [ "base_poisson_none_load1" ]
let synth seed = inputs seed (W.Synth.workload ())

(* Generate-path workloads load and link their program inside each
   operation, after [setup_done]; set-up links it once beforehand so that
   load/link cost shows in set-up time on every workload. *)
let link_check (w : Workload.t) =
  let opts =
    {
      Dlink_linker.Loader.default_options with
      mode = Sim.link_mode Sim.Base;
      func_align = w.func_align;
    }
  in
  ignore (Dlink_linker.Loader.load_exn ~opts w.objs)

let serve_bigcell =
  let cell seed w =
    serve_op (Serve.run_cell_stream ~jobs:domains ~cfg:(bigcell_cfg seed) w)
  in
  {
    name = "serve_bigcell";
    domains;
    programs = (fun ~seed -> [ synth seed ]);
    plain =
      (fun ~seed ~setup_done ->
        guard bigcell_labels (fun () ->
            let w = synth seed in
            link_check w;
            setup_done ();
            [ cell seed w ]));
    traced =
      (fun ~seed tr ~setup_done ->
        guard bigcell_labels (fun () ->
            staged tr ~setup_done
              ~load_link:(fun () ->
                let w = synth seed in
                link_check w;
                w)
              ~record:ignore ~calibrate:ignore
              ~execute:(fun ~parent w () ->
                let op =
                  Span.with_span tr ~parent "serve.cell" (fun _ -> cell seed w)
                in
                fun () -> [ op ])));
  }

(* ---------------------------------------------------------------- *)
(* churn: dlopen/dlclose rotation, link modes x churn rates.           *)

let churn_calls = 10_000
let churn_modes = [ Mode.Lazy_binding; Mode.Eager_binding; Mode.Stable_linking ]
let churn_rates = [ 0; 300 ]

let churn_combos =
  List.concat_map
    (fun mode -> List.map (fun rate -> (mode, rate)) churn_rates)
    churn_modes

let churn_labels =
  List.map
    (fun (mode, rate) -> Printf.sprintf "%s_r%d" (Mode.to_string mode) rate)
    churn_combos

let churn_setup () =
  let scen = W.Churn.scenario () in
  ignore (Churn.make_machine ~link_mode:Mode.Lazy_binding scen);
  scen

let churn =
  let cell seed scen (link_mode, rate) =
    churn_op (Churn.run_cell ~link_mode ~rate ~calls:churn_calls ~seed scen)
  in
  {
    name = "churn";
    domains = 1;
    programs = (fun ~seed -> [ inputs seed (W.Churn.workload ()) ]);
    plain =
      (fun ~seed ~setup_done ->
        guard churn_labels (fun () ->
            let scen = churn_setup () in
            setup_done ();
            List.map (cell seed scen) churn_combos));
    traced =
      (fun ~seed tr ~setup_done ->
        guard churn_labels (fun () ->
            staged tr ~setup_done
              ~load_link:churn_setup
              ~record:ignore ~calibrate:ignore
              ~execute:(fun ~parent scen () ->
                let ops =
                  List.map
                    (fun combo ->
                      Span.with_span tr ~parent "churn.cell" (fun _ ->
                          cell seed scen combo))
                    churn_combos
                in
                fun () -> ops)));
  }

(* ---------------------------------------------------------------- *)
(* multi_tenant: memcached + apache on two simulated cores,           *)
(* Sched_replay.sweep over every policy x the default quanta.         *)

let mt_requests = 50
let mt_cores = 2
let mt_policies = Policy.all
let mt_quanta = Quantum_sweep.default_quanta

let mt_combos =
  List.concat_map
    (fun quantum -> List.map (fun policy -> (quantum, policy)) mt_policies)
    mt_quanta

let mt_labels =
  List.map (fun (quantum, policy) -> point_label ~quantum ~policy) mt_combos

let apache seed = inputs seed (W.Apache.workload ())
let mt_programs seed = [ memcached seed; apache seed ]

(* Two tenants of each program, interleaved so that process [pid] runs on
   core [pid mod 2]: each core time-slices one tenant of each program
   (every quantum ends in a context switch), and each program runs on both
   cores, so a GOT store one core retires reaches a skip entry the other
   core holds for the same slot (the coherence bus does work under
   asid-shared-guard). *)
let mt_tenants seed = List.concat_map (fun w -> [ w; w ]) (mt_programs seed)

let multi_tenant =
  let record ws =
    List.map
      (fun w ->
        (w, Cache.get ~warmup:0 ~requests:mt_requests ~mode:Sim.Enhanced w))
      ws
  in
  {
    name = "multi_tenant";
    domains;
    programs = (fun ~seed -> mt_programs seed);
    plain =
      (fun ~seed ~setup_done ->
        guard mt_labels (fun () ->
            let ws = mt_tenants seed in
            ignore (record ws);
            setup_done ();
            Sched_replay.sweep ~mode:Sim.Enhanced ~requests:mt_requests
              ~cores:mt_cores ~jobs:domains ~policies:mt_policies
              ~quanta:mt_quanta ws
            |> List.map (fun p -> sched_op p)));
    traced =
      (fun ~seed tr ~setup_done ->
        guard mt_labels (fun () ->
            staged tr ~setup_done
              ~load_link:(fun () -> mt_tenants seed)
              ~record:(fun ws -> ignore (record ws))
              ~calibrate:ignore
              ~execute:(fun ~parent ws () ->
                let pairs = record ws in
                let ops =
                  Dpool.map ~jobs:domains
                    (fun (quantum, policy) ->
                      Span.with_span tr ~parent "sched.point" (fun _ ->
                          let r =
                            Sched_replay.run ~mode:Sim.Enhanced
                              ~requests:mt_requests ~policy ~quantum
                              ~cores:mt_cores pairs
                          in
                          sched_op ~system:r.system
                            (Sched_replay.point_of_result ~quantum ~policy r)))
                    mt_combos
                in
                fun () -> ops)));
  }

let all = [ serve_sweep; serve_bigcell; churn; multi_tenant ]
let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all
