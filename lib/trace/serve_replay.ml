module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Workload = Dlink_core.Workload
module Counters = Dlink_uarch.Counters
module Kernel = Dlink_pipeline.Kernel

(* Replay source for Dlink_core.Serve: the same service streams produced
   by [Kernel.replay_request] against the cached packed trace instead of
   live interpretation.  The kernel is bit-identical across event
   sources, so a replayed stream equals the generated one and the cells
   built over it match the generate driver bit for bit (asserted by the
   pipeline equivalence matrix and test_serve). *)

let calibrate ?ucfg ?skip_cfg ?requests ?warmup (w : Workload.t) =
  let n = Option.value requests ~default:w.Workload.default_requests in
  let tr = Cache.get ?warmup ~requests:n ~mode:Sim.Base w in
  let c = Replay.replay_counters ?ucfg ?skip_cfg ~mode:Sim.Base ~requests:n tr in
  max 1 (c.Counters.cycles / max 1 n)

(* A packed trace costs tens of KB per request (memcached: ~35 KB), so
   streams longer than this generate instead of recording a trace whose
   event stream would dwarf the cell itself. *)
let trace_cell_cap = 20_000

let replay_stream ?ucfg ?skip_cfg ~mode ~flush ~flush_every ~requests tr =
  let m = Replay.make_machine ?ucfg ?skip_cfg ~mode () in
  let c = Trace.Cursor.create tr in
  let warmup = Trace.warmup tr in
  for r = 0 to warmup - 1 do
    Kernel.note_boundary m ~rtype:(Trace.request_rtype tr r);
    Kernel.replay_request m c r
  done;
  let counters = Kernel.counters m in
  let baseline = Counters.copy counters in
  let services = Array.make requests 0 in
  for i = 0 to requests - 1 do
    (match Serve.switch_before ~flush ~flush_every i with
    | Some retain_asid -> Kernel.context_switch ~retain_asid m
    | None -> ());
    let r = warmup + i in
    Kernel.note_boundary m ~rtype:(Trace.request_rtype tr r);
    let before = counters.Counters.cycles in
    Kernel.replay_request m c r;
    services.(i) <- counters.Counters.cycles - before
  done;
  { Serve.services; counters = Counters.diff ~after:counters ~before:baseline }

(* Cells over replayed streams where the replay invariants hold and the
   trace is small enough (or supplied by the caller), generated streams
   otherwise.  Traces are fetched before the pool starts, so workers only
   read immutable trace values. *)
let cells ?ucfg ?skip_cfg ?mean_service ?tr ?jobs (w : Workload.t) cfgs =
  match cfgs with
  | [] -> []
  | (c0 : Serve.config) :: _ ->
      List.iter Serve.check_config cfgs;
      let requests = c0.Serve.requests and flush_every = c0.Serve.flush_every in
      let traces =
        List.filter_map
          (fun mode ->
            if not (Replay.compatible ?skip_cfg ~mode ()) then None
            else
              match tr with
              | Some tr when mode = c0.Serve.mode -> Some (mode, tr)
              | _ when requests <= trace_cell_cap ->
                  Some (mode, Cache.get ~requests ~mode w)
              | _ -> None)
          (List.sort_uniq compare
             (List.map fst (Serve.stream_keys ?mean_service cfgs)))
      in
      let stream ~mode ~flush =
        match List.assoc_opt mode traces with
        | Some tr ->
            replay_stream ?ucfg ?skip_cfg ~mode ~flush ~flush_every ~requests
              tr
        | None ->
            Serve.generate_stream ?ucfg ?skip_cfg ~mode ~flush ~flush_every
              ~requests w
      in
      Serve.run_cells ?jobs ?mean_service ~stream w cfgs

let run_cell ?ucfg ?skip_cfg ?mean_service ?tr ?jobs ~cfg (w : Workload.t) =
  match cells ?ucfg ?skip_cfg ?mean_service ?tr ?jobs w [ cfg ] with
  | [ c ] -> c
  | _ -> assert false

let sweep ?ucfg ?skip_cfg ?jobs ?(cfg = Serve.default_config) ~loads ~modes
    ~flushes (w : Workload.t) =
  if loads = [] then invalid_arg "Serve_replay.sweep: no loads";
  if modes = [] then invalid_arg "Serve_replay.sweep: no modes";
  if flushes = [] then invalid_arg "Serve_replay.sweep: no flushes";
  cells ?ucfg ?skip_cfg ?jobs w
    (List.concat_map
       (fun mode ->
         List.concat_map
           (fun flush ->
             List.map (fun load -> { cfg with Serve.mode; flush; load }) loads)
           flushes)
       modes)
