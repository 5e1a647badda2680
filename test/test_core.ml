(* Tests for Dlink_core: the trampoline-skip mechanism end to end.

   The central invariants from the paper:
   - the first two invocations of a library call execute the trampoline
     (lazy resolution, then ABTB training); every later one is skipped;
   - a store to a GOT slot guarding a live ABTB entry clears the table
     (Bloom filter, no false negatives), so the mechanism never
     misspeculates even when libraries are rebound;
   - enhanced execution is architecturally identical to base execution;
   - context switches flush the ABTB unless ASIDs retain it. *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
module Loader = Dlink_linker.Loader
module Space = Dlink_linker.Space
module Image = Dlink_linker.Image
module Memory = Dlink_mach.Memory
module Process = Dlink_mach.Process
module C = Dlink_uarch.Counters
module Config = Dlink_uarch.Config
open Dlink_core
module Skip = Dlink_pipeline.Skip
module Profile = Dlink_pipeline.Profile

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let func ?(exported = true) fname body = { Objfile.fname; exported; body }

let app_main body = Objfile.create_exn ~name:"app" [ func ~exported:false "main" body ]

let libx ?(extra = []) () =
  Objfile.create_exn ~name:"libx"
    ([
       func "f" [ Body.Compute 6 ];
       func "g" [ Body.Compute 3; Body.Touch { loads = 1; stores = 1 } ];
     ]
    @ extra)

let call_n_times sym n = List.init n (fun _ -> Body.Call_import sym)

let verify_cfg = { Skip.default_config with verify_targets = true }

let make_sim ?(skip_cfg = verify_cfg) ?mode body =
  let mode = Option.value mode ~default:Sim.Enhanced in
  Sim.create ~skip_cfg ~mode [ app_main body; libx () ]

(* ---------------- skip behaviour ---------------- *)

let call_main_n sim n =
  for _ = 1 to n do
    Sim.call sim ~mname:"app" ~fname:"main"
  done

let test_skip_after_two_invocations () =
  (* One call site executed ten times: the first execution resolves lazily,
     the second trains the ABTB and the site's BTB entry, the remaining
     eight are skipped. *)
  let sim = make_sim [ Body.Call_import "f" ] in
  call_main_n sim 10;
  let c = Sim.counters sim in
  checki "ten calls" 10 c.C.tramp_calls;
  checki "eight skipped" 8 c.C.tramp_skips;
  checki "resolver once" 1 c.C.resolver_runs

let test_no_skip_in_base_mode () =
  let sim = make_sim ~mode:Sim.Base [ Body.Call_import "f" ] in
  call_main_n sim 10;
  let c = Sim.counters sim in
  checki "no skips" 0 c.C.tramp_skips;
  (* Steady-state trampolines execute: 5 stub instructions on the first
     call, 1 on each subsequent. *)
  checki "tramp instrs" (5 + 9) c.C.tramp_instructions

let test_skip_reduces_retired_instructions () =
  let run mode =
    let sim = make_sim ~mode [ Body.Call_import "f" ] in
    call_main_n sim 50;
    (Sim.counters sim).C.instructions
  in
  checkb "enhanced retires fewer" true (run Sim.Enhanced < run Sim.Base)

let test_two_call_sites_same_trampoline () =
  (* Two call sites to the same import: each site needs one trampoline
     execution to train its own BTB entry, after which both skip via the
     shared ABTB entry. *)
  let sim = make_sim [ Body.Call_import "f"; Body.Call_import "f" ] in
  call_main_n sim 5;
  checkb "most skipped" true ((Sim.counters sim).C.tramp_skips >= 7)

let test_distinct_trampolines_tracked () =
  let body = call_n_times "f" 3 @ call_n_times "g" 3 in
  let sim = make_sim ~mode:Sim.Base body in
  Sim.call sim ~mname:"app" ~fname:"main";
  checki "two distinct" 2 (Profile.distinct_trampolines (Sim.profile sim))

let test_eager_mode_skips_resolver_but_not_trampoline () =
  let sim = make_sim ~mode:Sim.Eager (call_n_times "f" 5) in
  Sim.call sim ~mname:"app" ~fname:"main";
  let c = Sim.counters sim in
  checki "no resolver" 0 c.C.resolver_runs;
  checki "trampoline each call" 5 c.C.tramp_instructions

let test_static_and_patched_have_no_trampolines () =
  List.iter
    (fun mode ->
      let sim = make_sim ~mode (call_n_times "f" 5) in
      Sim.call sim ~mname:"app" ~fname:"main";
      checki "no tramp instrs" 0 (Sim.counters sim).C.tramp_instructions)
    [ Sim.Static; Sim.Patched ]

(* ---------------- architectural equivalence ---------------- *)

let arch_fingerprint_of mode body =
  let sim = make_sim ~mode body in
  Sim.call sim ~mname:"app" ~fname:"main";
  Process.arch_fingerprint (Sim.process sim)

let test_arch_equivalence_base_enhanced () =
  let body =
    [
      Body.Compute 3;
      Body.Loop
        {
          mean_iters = 25.0;
          body =
            [
              Body.Touch { loads = 2; stores = 2 };
              Body.Call_import "f";
              Body.If { p = 0.5; then_ = [ Body.Call_import "g" ]; else_ = [] };
            ];
        };
    ]
  in
  checki "identical architectural state"
    (arch_fingerprint_of Sim.Base body)
    (arch_fingerprint_of Sim.Enhanced body)

let test_verify_targets_never_fires () =
  (* With verification on, any skip to a stale target would raise. *)
  let sim = make_sim [ Body.Call_import "f"; Body.Call_import "g" ] in
  call_main_n sim 200;
  checkb "no misspeculation" true ((Sim.counters sim).C.tramp_skips > 300)

(* ---------------- GOT stores and the Bloom filter ---------------- *)

let got_slot_of sim sym =
  let linked = Sim.linked sim in
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  Option.get (Image.got_slot app sym)

let test_got_store_clears_abtb () =
  let sim = make_sim (call_n_times "f" 10) in
  Sim.call sim ~mname:"app" ~fname:"main";
  let skip = Option.get (Sim.skip sim) in
  checkb "abtb populated" true (Dlink_uarch.Abtb.valid_count (Skip.abtb skip) > 0);
  (* Simulate a library rebind: store to the guarded GOT slot. *)
  let clears_before = (Sim.counters sim).C.abtb_clears in
  Skip.on_retire skip
    (Dlink_mach.Event.make ~store:(got_slot_of sim "f") 0);
  checki "cleared" (clears_before + 1) (Sim.counters sim).C.abtb_clears;
  checki "table empty" 0 (Dlink_uarch.Abtb.valid_count (Skip.abtb skip))

let test_library_rebinding_is_safe () =
  (* Rebind "f" to "g" mid-run by writing the GOT through simulated code is
     not expressible in the body IR, so emulate the coherence event
     directly: after the clear, the next call must re-execute the
     trampoline and bind to the new target with no misspeculation. *)
  let sim = make_sim (call_n_times "f" 6) in
  Sim.call sim ~mname:"app" ~fname:"main";
  let skip = Option.get (Sim.skip sim) in
  let linked = Sim.linked sim in
  let g = Option.get (Loader.func_addr linked ~mname:"libx" ~fname:"g") in
  let slot = got_slot_of sim "f" in
  (* The rebinding store, observed architecturally and by the skip logic. *)
  Memory.write (Process.memory (Sim.process sim)) slot g;
  Skip.on_retire skip
    (Dlink_mach.Event.make ~store:slot 0);
  (* Subsequent calls route to g via the trampoline; verify_targets would
     raise if a stale skip happened. *)
  Sim.call sim ~mname:"app" ~fname:"main";
  checkb "ran safely" true ((Sim.counters sim).C.instructions > 0)

let test_false_clear_classification () =
  let cfg = { verify_cfg with bloom_granularity = Skip.Slot; bloom_bits = 16 } in
  (* A tiny slot-granular filter guarantees false positives from ordinary
     data stores. *)
  let body =
    [
      Body.Loop
        {
          mean_iters = 50.0;
          body = [ Body.Touch { loads = 0; stores = 4 }; Body.Call_import "f" ];
        };
    ]
  in
  let sim = make_sim ~skip_cfg:cfg body in
  Sim.call sim ~mname:"app" ~fname:"main";
  let c = Sim.counters sim in
  checkb "false clears observed" true (c.C.abtb_false_clears > 0);
  checkb "false clears counted within clears" true
    (c.C.abtb_false_clears <= c.C.abtb_clears)

let test_page_granularity_ignores_data_stores () =
  let body =
    [
      Body.Loop
        {
          mean_iters = 50.0;
          body = [ Body.Touch { loads = 0; stores = 4 }; Body.Call_import "f" ];
        };
    ]
  in
  let sim = make_sim ~skip_cfg:{ verify_cfg with bloom_bits = 65536 } body in
  Sim.call sim ~mname:"app" ~fname:"main";
  checki "no clears" 0 (Sim.counters sim).C.abtb_clears

(* ---------------- fall-through filter ---------------- *)

let test_fallthrough_filter_prevents_startup_clear () =
  let run filter =
    let cfg = { verify_cfg with filter_fallthrough = filter } in
    let sim = make_sim ~skip_cfg:cfg (call_n_times "f" 4) in
    Sim.call sim ~mname:"app" ~fname:"main";
    (Sim.counters sim).C.abtb_clears
  in
  checki "filtered: no startup clear" 0 (run true);
  (* Unfiltered: the lazy first execution inserts trampoline->push-stub and
     the resolver's GOT store clears the table once (§3.2). *)
  checki "unfiltered: one clear" 1 (run false)

let test_unfiltered_still_skips_eventually () =
  let cfg = { verify_cfg with filter_fallthrough = false } in
  let sim = make_sim ~skip_cfg:cfg [ Body.Call_import "f" ] in
  call_main_n sim 10;
  checkb "skips recover" true ((Sim.counters sim).C.tramp_skips >= 7)

(* ---------------- context switches ---------------- *)

let test_context_switch_flushes_abtb () =
  let sim = make_sim (call_n_times "f" 10) in
  Sim.call sim ~mname:"app" ~fname:"main";
  let skip = Option.get (Sim.skip sim) in
  Sim.context_switch sim;
  checki "abtb flushed" 0 (Dlink_uarch.Abtb.valid_count (Skip.abtb skip))

let test_context_switch_with_asid_retains_abtb () =
  let sim = make_sim (call_n_times "f" 10) in
  Sim.call sim ~mname:"app" ~fname:"main";
  let skip = Option.get (Sim.skip sim) in
  let n = Dlink_uarch.Abtb.valid_count (Skip.abtb skip) in
  checkb "entries trained" true (n > 0);
  Sim.context_switch ~retain_asid:true sim;
  checki "abtb retained" n (Dlink_uarch.Abtb.valid_count (Skip.abtb skip))

let test_got_store_still_clears_after_asid_switch () =
  (* ASID retention must not weaken the Bloom guard: a rebinding store
     after the switch still hits the filter and clears the ABTB. *)
  let sim = make_sim (call_n_times "f" 10) in
  Sim.call sim ~mname:"app" ~fname:"main";
  let skip = Option.get (Sim.skip sim) in
  Sim.context_switch ~retain_asid:true sim;
  checkb "entries survived the switch" true
    (Dlink_uarch.Abtb.valid_count (Skip.abtb skip) > 0);
  let clears_before = (Sim.counters sim).C.abtb_clears in
  let linked = Sim.linked sim in
  let appimg = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot appimg "f") in
  Skip.on_retire skip
    (Dlink_mach.Event.make ~store:slot 0);
  checki "abtb cleared" 0 (Dlink_uarch.Abtb.valid_count (Skip.abtb skip));
  checki "clear counted" (clears_before + 1) (Sim.counters sim).C.abtb_clears

(* ---------------- ASLR ---------------- *)

let test_aslr_does_not_affect_mechanism () =
  (* §2.1: ASLR is one of the benefits dynamic linking must keep.  The
     mechanism works on whatever virtual addresses the loader picked, so
     skip counts are identical across layouts. *)
  let skips aslr_seed =
    let sim =
      Sim.create ~skip_cfg:verify_cfg ?aslr_seed ~mode:Sim.Enhanced
        [ app_main [ Body.Call_import "f" ]; libx () ]
    in
    call_main_n sim 20;
    (Sim.counters sim).C.tramp_skips
  in
  let reference = skips None in
  List.iter
    (fun seed -> checki "same skips under ASLR" reference (skips (Some seed)))
    [ 1; 2; 3 ]

(* ---------------- profile ---------------- *)

let test_profile_counts_and_stream () =
  let body = call_n_times "f" 7 @ call_n_times "g" 3 in
  let sim =
    Sim.create ~record_stream:true ~mode:Sim.Base [ app_main body; libx () ]
  in
  Sim.call sim ~mname:"app" ~fname:"main";
  let p = Sim.profile sim in
  checki "total calls" 10 (Profile.tramp_calls p);
  checki "stream length" 10 (Array.length (Profile.stream p));
  (match Profile.counts p with
  | (_, c1) :: (_, c2) :: _ ->
      checki "top count" 7 c1;
      checki "second count" 3 c2
  | _ -> Alcotest.fail "expected two trampolines");
  match Profile.rank_frequency p with
  | (r1, f1) :: _ ->
      checkb "rank starts at 1" true (r1 = 1.0);
      checkb "descending" true (f1 = 7.0)
  | [] -> Alcotest.fail "empty rank frequency"

let test_profile_reset () =
  let sim =
    Sim.create ~record_stream:true ~mode:Sim.Base
      [ app_main (call_n_times "f" 3); libx () ]
  in
  Sim.call sim ~mname:"app" ~fname:"main";
  Profile.reset (Sim.profile sim);
  checki "reset" 0 (Profile.tramp_calls (Sim.profile sim))

(* ---------------- ABTB sweep (Figure 5 infrastructure) ---------------- *)

let test_sweep_monotone_in_capacity () =
  (* A cyclic stream over 8 distinct trampolines. *)
  let stream = Array.init 800 (fun i -> 16 * (i mod 8)) in
  let pcts =
    List.map (fun e -> Abtb_sweep.replay ~entries:e stream) [ 1; 2; 4; 8; 16 ]
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  checkb "monotone" true (non_decreasing pcts);
  checkb "full capacity near 100%" true (List.nth pcts 3 > 98.0)

let test_sweep_empty_stream () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Abtb_sweep.replay ~entries:16 [||])

let test_sweep_cold_misses_bound_hit_rate () =
  (* Every element distinct: nothing can ever hit. *)
  let stream = Array.init 100 (fun i -> i * 32) in
  Alcotest.(check (float 1e-9)) "all cold" 0.0 (Abtb_sweep.replay ~entries:256 stream)

let test_sweep_default_sizes () =
  checki "paper x-axis" 9 (List.length Abtb_sweep.default_sizes);
  checki "max 256" 256 (List.nth Abtb_sweep.default_sizes 8)

(* ---------------- COW prefork model ---------------- *)

let test_cow_first_write_copies_once () =
  let c = Cow.create ~processes:3 in
  Cow.write c ~pid:0 ~page:7;
  Cow.write c ~pid:0 ~page:7;
  checki "one copy" 1 (Cow.private_copies c);
  Cow.write c ~pid:1 ~page:7;
  checki "per-process copies" 2 (Cow.private_copies c);
  checki "bytes" (2 * 4096) (Cow.wasted_bytes c)

let test_cow_rejects_bad_pid () =
  let c = Cow.create ~processes:2 in
  Alcotest.check_raises "bad pid" (Invalid_argument "Cow.write: bad pid") (fun () ->
      Cow.write c ~pid:2 ~page:0)

let test_cow_growth_monotone_and_bounded () =
  (* Schedule: 4 sites on 3 distinct pages, touched across a 100-call run. *)
  let site_order = [ (4096, 1); (4100, 2); (8192, 10); (999_424, 60) ] in
  let points =
    Cow.lazy_patching_growth ~site_order ~total_calls:100 ~processes:10 ~samples:5
  in
  let pages = List.map (fun g -> g.Cow.pages_per_process) points in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  checkb "monotone" true (mono pages);
  checki "final page count" 3 (List.nth pages 4);
  let last = List.nth points 4 in
  checkb "family waste = procs x pages" true
    (abs_float (last.Cow.wasted_mb -. (3.0 *. 10.0 *. 4096.0 /. 1048576.0)) < 1e-9)

let test_profile_site_first_touch_order () =
  let sim =
    Sim.create ~mode:Sim.Base
      [ app_main [ Body.Call_import "f"; Body.Call_import "g" ]; libx () ]
  in
  call_main_n sim 3;
  let order = Profile.site_first_touch (Sim.profile sim) in
  checki "two sites" 2 (List.length order);
  (match order with
  | (_, i1) :: (_, i2) :: _ ->
      checkb "first-touch indices ordered" true (i1 < i2)
  | _ -> Alcotest.fail "expected two sites");
  checkb "sites are code addresses" true
    (List.for_all
       (fun (site, _) ->
         Dlink_linker.Space.image_at (Sim.linked sim).Loader.space site <> None)
       order)

(* ---------------- memory savings ---------------- *)

let test_memsave_after_fork_scales_with_processes () =
  let r = Memory_savings.analyze ~patched_pages:280 ~processes:450
      Memory_savings.Patch_after_fork in
  checki "copied" (280 * 450) r.Memory_savings.copied_pages_total;
  checkb "~0.5GB" true (r.Memory_savings.wasted_bytes > 400_000_000)

let test_memsave_before_fork_shares () =
  let r = Memory_savings.analyze ~patched_pages:280 ~processes:450
      Memory_savings.Patch_before_fork in
  checki "one copy" 280 r.Memory_savings.copied_pages_total

let test_memsave_hardware_is_free () =
  let r = Memory_savings.analyze ~patched_pages:280 ~processes:450 Memory_savings.Hardware in
  checki "zero" 0 r.Memory_savings.wasted_bytes

let test_memsave_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Memory_savings.analyze: negative input")
    (fun () ->
      ignore
        (Memory_savings.analyze ~patched_pages:(-1) ~processes:1 Memory_savings.Hardware))

(* ---------------- experiment runner ---------------- *)

let tiny_workload () =
  let objs = [ app_main (call_n_times "f" 5); libx () ] in
  {
    Workload.wname = "tiny";
    objs;
    request_type_names = [| "only" |];
    gen_request = (fun _ -> { Workload.rtype = 0; mname = "app"; fname = "main" });
    default_requests = 20;
    warmup_requests = 2;
    us_scale = 1.0;
    ghz = 3.0;
    func_align = 16;
  }

let test_experiment_runs_and_measures () =
  let r = Experiment.run ~mode:Sim.Base (tiny_workload ()) in
  checki "requests" 20 r.Experiment.requests;
  let _, lat = r.Experiment.latencies_us.(0) in
  checki "latencies per request" 20 (Array.length lat);
  checkb "positive latency" true (Array.for_all (fun x -> x > 0.0) lat);
  checkb "pki positive" true (Experiment.tramp_pki r > 0.0)

let test_experiment_warmup_excluded () =
  let w = { (tiny_workload ()) with warmup_requests = 10 } in
  let r = Experiment.run ~requests:5 ~mode:Sim.Base w in
  (* Resolution happened during warmup, so no resolver runs in window. *)
  checki "no resolver in window" 0 r.Experiment.counters.C.resolver_runs;
  checki "five requests" 5 r.Experiment.requests

let test_experiment_compare_modes () =
  let base, enh = Experiment.compare_modes (tiny_workload ()) in
  checkb "enhanced cheaper or equal" true
    (enh.Experiment.counters.C.instructions <= base.Experiment.counters.C.instructions)

let test_experiment_context_switch_option () =
  let r =
    Experiment.run ~context_switch_every:2 ~mode:Sim.Enhanced (tiny_workload ())
  in
  checkb "still correct" true (r.Experiment.counters.C.instructions > 0)

let test_mean_latency_unknown_type_raises () =
  let r = Experiment.run ~mode:Sim.Base (tiny_workload ()) in
  checkb "raises" true
    (try
       ignore (Experiment.mean_latency_us r "nope");
       false
     with Not_found -> true)

(* ---------------- property tests ---------------- *)

let body_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Body.Compute n) (int_range 1 8);
        map2 (fun l s -> Body.Touch { loads = l; stores = s }) (int_range 0 2)
          (int_range 0 2);
        oneofl [ Body.Call_import "f"; Body.Call_import "g" ];
      ]
  in
  let block = list_size (int_range 1 6) leaf in
  map2
    (fun blk wrap ->
      if wrap then [ Body.Loop { mean_iters = 8.0; body = blk } ] else blk)
    block bool

let qcheck_tests =
  [
    QCheck.Test.make ~name:"enhanced always architecturally equivalent to base"
      ~count:40 (QCheck.make body_gen)
      (fun body ->
        arch_fingerprint_of Sim.Base body = arch_fingerprint_of Sim.Enhanced body);
    QCheck.Test.make ~name:"all modes architecturally equivalent" ~count:25
      (QCheck.make body_gen)
      (fun body ->
        let fp = arch_fingerprint_of Sim.Base body in
        List.for_all
          (fun mode -> arch_fingerprint_of mode body = fp)
          [ Sim.Eager; Sim.Enhanced ]);
    QCheck.Test.make ~name:"skips never exceed trampoline calls" ~count:40
      (QCheck.make body_gen)
      (fun body ->
        let sim = make_sim body in
        Sim.call sim ~mname:"app" ~fname:"main";
        let c = Sim.counters sim in
        c.C.tramp_skips <= c.C.tramp_calls);
    QCheck.Test.make ~name:"enhanced retires no more than base" ~count:30
      (QCheck.make body_gen)
      (fun body ->
        let instrs mode =
          let sim = make_sim ~mode body in
          Sim.call sim ~mname:"app" ~fname:"main";
          (Sim.counters sim).C.instructions
        in
        instrs Sim.Enhanced <= instrs Sim.Base);
  ]

let () =
  Alcotest.run "dlink_core"
    [
      ( "skip",
        [
          Alcotest.test_case "skip after two invocations" `Quick test_skip_after_two_invocations;
          Alcotest.test_case "no skip in base" `Quick test_no_skip_in_base_mode;
          Alcotest.test_case "fewer retired instructions" `Quick
            test_skip_reduces_retired_instructions;
          Alcotest.test_case "two call sites" `Quick test_two_call_sites_same_trampoline;
          Alcotest.test_case "distinct trampolines" `Quick test_distinct_trampolines_tracked;
          Alcotest.test_case "eager mode" `Quick test_eager_mode_skips_resolver_but_not_trampoline;
          Alcotest.test_case "static/patched no trampolines" `Quick
            test_static_and_patched_have_no_trampolines;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "base = enhanced arch state" `Quick
            test_arch_equivalence_base_enhanced;
          Alcotest.test_case "verified skips" `Quick test_verify_targets_never_fires;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "GOT store clears ABTB" `Quick test_got_store_clears_abtb;
          Alcotest.test_case "library rebinding safe" `Quick test_library_rebinding_is_safe;
          Alcotest.test_case "false clears classified" `Quick test_false_clear_classification;
          Alcotest.test_case "page granularity precise" `Quick
            test_page_granularity_ignores_data_stores;
        ] );
      ( "fallthrough",
        [
          Alcotest.test_case "filter prevents startup clear" `Quick
            test_fallthrough_filter_prevents_startup_clear;
          Alcotest.test_case "unfiltered recovers" `Quick test_unfiltered_still_skips_eventually;
        ] );
      ( "context",
        [
          Alcotest.test_case "switch flushes" `Quick test_context_switch_flushes_abtb;
          Alcotest.test_case "asid retains" `Quick test_context_switch_with_asid_retains_abtb;
          Alcotest.test_case "got store clears after asid switch" `Quick
            test_got_store_still_clears_after_asid_switch;
        ] );
      ("aslr", [ Alcotest.test_case "mechanism layout-blind" `Quick
                   test_aslr_does_not_affect_mechanism ]);
      ( "profile",
        [
          Alcotest.test_case "counts and stream" `Quick test_profile_counts_and_stream;
          Alcotest.test_case "reset" `Quick test_profile_reset;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "monotone" `Quick test_sweep_monotone_in_capacity;
          Alcotest.test_case "empty stream" `Quick test_sweep_empty_stream;
          Alcotest.test_case "cold misses" `Quick test_sweep_cold_misses_bound_hit_rate;
          Alcotest.test_case "default sizes" `Quick test_sweep_default_sizes;
        ] );
      ( "cow",
        [
          Alcotest.test_case "copy once per process" `Quick
            test_cow_first_write_copies_once;
          Alcotest.test_case "bad pid" `Quick test_cow_rejects_bad_pid;
          Alcotest.test_case "growth curve" `Quick test_cow_growth_monotone_and_bounded;
          Alcotest.test_case "site first touch" `Quick
            test_profile_site_first_touch_order;
        ] );
      ( "memsave",
        [
          Alcotest.test_case "after fork" `Quick test_memsave_after_fork_scales_with_processes;
          Alcotest.test_case "before fork" `Quick test_memsave_before_fork_shares;
          Alcotest.test_case "hardware free" `Quick test_memsave_hardware_is_free;
          Alcotest.test_case "rejects negative" `Quick test_memsave_rejects_negative;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "runs and measures" `Quick test_experiment_runs_and_measures;
          Alcotest.test_case "warmup excluded" `Quick test_experiment_warmup_excluded;
          Alcotest.test_case "compare modes" `Quick test_experiment_compare_modes;
          Alcotest.test_case "context switch option" `Quick test_experiment_context_switch_option;
          Alcotest.test_case "unknown type raises" `Quick test_mean_latency_unknown_type_raises;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
