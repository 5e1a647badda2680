(* Benchmark worker.  One invocation runs one round of one workload and
   prints one JSON line; perfbench/run.py spawns rounds, times them from
   outside and aggregates.

     bench.exe round  --workload W --seed N --t0-ns T [--trace] [--spans F]
                      [--expected F]
     bench.exe setup  --workload W --seed N --t0-ns T
     bench.exe layers --workload W --seed N
     bench.exe calib

   [round] runs the workload's operations (plain, or traced with spans)
   and reports their digests, the failed-operation count and the set-up
   time, measured from [--t0-ns] on the monotonic clock (the instant the
   caller spawned the process).  [setup] runs the plain shape only up to
   the end of its set-up, reports the set-up time and exits.  [layers]
   runs the per-layer probes.  [calib] times the host-speed reference
   kernel ({!Calib}). *)

open Perfbench
module Json = Dlink_util.Json
module Counters = Dlink_uarch.Counters
module Cache = Dlink_trace.Cache

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Committed digests: lines of "<seed> <label> <digest>". *)
let load_expected path ~seed : Ops.expected =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ s; label; d ] when int_of_string_opt s = Some seed ->
             Some (label, d)
         | _ -> None)

(* Per-layer numbers the traced round itself yields: stage self times,
   per-operation span times, and the modelled outputs of its operations.
   An operation kind the workload does not run reads 0, as a modelled
   output of a layer it leaves idle does. *)
let traced_metrics spans (ops : Ops.op list) =
  let c = Counters.create () in
  List.iter (fun (op : Ops.op) -> Counters.add ~into:c op.counters) ops;
  let total k = List.fold_left (fun acc op -> acc + Ops.count op k) 0 ops in
  let s x = float_of_int x /. 1e9 in
  let stage name =
    (Printf.sprintf "stage.%s_s" name, s (Span.self_of spans name))
  in
  let op_time key name =
    match Span.durations_of spans name with
    | [] -> (key, 0.0)
    | d -> (key, Layers.median (List.map s d))
  in
  let hits = Cache.hits () and misses = Cache.misses () in
  List.map stage [ "load_link"; "record"; "calibrate"; "execute"; "report" ]
  @ [
      op_time "serve.cell_s" "serve.cell";
      op_time "churn.cell_s" "churn.cell";
      op_time "sched.point_s" "sched.point";
      ("uarch.cpi", ratio c.cycles c.instructions);
      ("uarch.l1i_mpki", Counters.pki c c.icache_misses);
      ("uarch.itlb_mpki", Counters.pki c c.itlb_misses);
      ("uarch.mispredict_pki", Counters.pki c c.branch_mispredictions);
      ("uarch.tramp_pki", Counters.pki c c.tramp_instructions);
      ("uarch.abtb_clears_pk", Counters.pki c c.abtb_clears);
      ( "mach.coherence_invalidations_pk",
        Counters.pki c c.coherence_invalidations );
      ("pipeline.skip_ratio", ratio c.tramp_skips c.tramp_calls);
      ("serve.drop_ratio", ratio (total "dropped") (total "requests"));
      ( "linker.stable_hit_ratio",
        ratio (total "stable_hits")
          (total "stable_hits" + total "stable_misses") );
      ("linker.resolver_runs", float_of_int c.resolver_runs);
      ("sched.switches", float_of_int (total "switches"));
      ("trace.cache_mb", float_of_int (Cache.footprint_bytes ()) /. 1e6);
      ("trace.cache_hit_ratio", ratio hits (hits + misses));
    ]

let metrics_json l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l)

let round ~(wl : Ops.workload) ~seed ~t0_ns ~trace ~spans_file ~expected =
  let setup_ns = ref 0 in
  let setup_done () = setup_ns := Span.now_ns () in
  let tr = Span.create () in
  let ops =
    if trace then wl.traced ~seed tr ~setup_done else wl.plain ~seed ~setup_done
  in
  let expected =
    match expected with
    | Some path -> load_expected path ~seed
    | None -> []
  in
  let spans = Span.spans tr in
  let layer =
    if trace then [ ("layer", metrics_json (traced_metrics spans ops)) ]
    else []
  in
  Option.iter (fun f -> Json.write_file f (Span.to_json spans)) spans_file;
  Json.Obj
    ([
       ("workload", Json.String wl.name);
       ("seed", Json.Int seed);
       ("domains", Json.Int wl.domains);
       ("ocaml", Json.String Sys.ocaml_version);
       ("setup_s", Json.Float (float_of_int (!setup_ns - t0_ns) /. 1e9));
       ( "instructions",
         Json.Int
           (List.fold_left
              (fun acc (op : Ops.op) -> acc + op.counters.instructions)
              0 ops) );
       ("attempted", Json.Int (Ops.count_attempted ~expected ops));
       ("failed", Json.Int (Ops.count_failed ~expected ops));
       ( "missing",
         Json.List
           (List.map (fun l -> Json.String l) (Ops.missing ~expected ops)) );
       ( "ops",
         Json.List
           (List.map
              (fun (op : Ops.op) ->
                Json.Obj
                  [
                    ("label", Json.String op.label);
                    ("digest", Json.String op.digest);
                    ("ok", Json.Bool (not (Ops.failed ~expected op)));
                    ( "error",
                      match op.error with
                      | Some e -> Json.String e
                      | None -> Json.Null );
                  ])
              ops) );
     ]
    @ layer)

let () =
  let usage =
    "bench.exe (round|setup|layers) --workload W --seed N [--t0-ns T] \
     [--trace] [--spans FILE] [--expected FILE] | bench.exe calib"
  in
  let cmd = ref "" and workload = ref "" and seed = ref 1 in
  let t0_ns = ref (-1) and trace = ref false in
  let spans_file = ref None and expected = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--t0-ns", Arg.Set_int t0_ns, "T spawn instant, monotonic ns");
      ("--trace", Arg.Set trace, " traced round (spans + per-layer metrics)");
      ("--spans", Arg.String (fun f -> spans_file := Some f), "F span dump");
      ("--expected", Arg.String (fun f -> expected := Some f), "F digests");
    ]
    (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad a))
    usage;
  let emit j =
    Json.to_string j |> String.split_on_char '\n' |> String.concat " "
    |> print_endline
  in
  match Ops.find !workload with
  | _ when !cmd = "calib" ->
      let s = float_of_int (Calib.run ()) /. 1e9 in
      emit (Json.Obj [ ("ref_s", Json.Float s) ])
  | None ->
      Printf.eprintf "unknown workload %S (valid: %s)\n" !workload
        (String.concat ", " Ops.names);
      exit 2
  | Some wl -> (
      let t0_ns = if !t0_ns < 0 then Span.now_ns () else !t0_ns in
      match !cmd with
      | "round" ->
          emit
            (round ~wl ~seed:!seed ~t0_ns ~trace:!trace ~spans_file:!spans_file
               ~expected:!expected)
      | "setup" ->
          let setup_done () =
            let s = float_of_int (Span.now_ns () - t0_ns) /. 1e9 in
            emit (Json.Obj [ ("setup_s", Json.Float s) ]);
            exit 0
          in
          ignore (wl.plain ~seed:!seed ~setup_done);
          prerr_endline "set-up did not complete";
          exit 1
      | "layers" -> emit (metrics_json (Layers.run ~seed:!seed wl))
      | c ->
          Printf.eprintf "unknown command %S\n%s\n" c usage;
          exit 2)
