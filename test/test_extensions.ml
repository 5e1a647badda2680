(* Tests for the paper's related mechanisms and alternate design:
   GNU ifuncs (§2.4.1), C++-style virtual dispatch (§2.4.2), and the
   explicit-invalidation coherence mode (§3.4). *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
module Loader = Dlink_linker.Loader
module Space = Dlink_linker.Space
module Image = Dlink_linker.Image
module Memory = Dlink_mach.Memory
module Process = Dlink_mach.Process
module C = Dlink_uarch.Counters
open Dlink_core
module Skip = Dlink_pipeline.Skip

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let func ?(exported = true) fname body = { Objfile.fname; exported; body }

(* libstring exports an ifunc "copy" with three implementations
   (best-first: avx, sse, generic). *)
let libstring () =
  Objfile.create_exn ~name:"libstring"
    ~ifuncs:[ { Objfile.iname = "copy"; candidates = [ "copy_avx"; "copy_sse"; "copy_generic" ] } ]
    [
      func "copy_avx" [ Body.Compute 2 ];
      func "copy_sse" [ Body.Compute 5 ];
      func "copy_generic" [ Body.Compute 11 ];
    ]

let app_calling_copy n =
  Objfile.create_exn ~name:"app"
    [ func ~exported:false "main" (List.init n (fun _ -> Body.Call_import "copy")) ]

let load_hw hw_level objs =
  Loader.load_exn ~opts:{ Loader.default_options with hw_level } objs

(* ---------------- ifunc ---------------- *)

let test_ifunc_validation () =
  checkb "empty candidates" true
    (Result.is_error
       (Objfile.create ~name:"m"
          ~ifuncs:[ { Objfile.iname = "i"; candidates = [] } ]
          [ func "f" [] ]));
  checkb "unknown candidate" true
    (Result.is_error
       (Objfile.create ~name:"m"
          ~ifuncs:[ { Objfile.iname = "i"; candidates = [ "ghost" ] } ]
          [ func "f" [] ]));
  checkb "name collision" true
    (Result.is_error
       (Objfile.create ~name:"m"
          ~ifuncs:[ { Objfile.iname = "f"; candidates = [ "f" ] } ]
          [ func "f" [] ]))

let test_ifunc_exported () =
  let t = libstring () in
  checkb "ifunc in exports" true (List.mem "copy" (Objfile.exports t))

let resolved_copy hw_level =
  let linked = load_hw hw_level [ app_calling_copy 1; libstring () ] in
  Option.get (Dlink_linker.Linkmap.lookup_addr linked.Loader.linkmap "copy")

let test_ifunc_selects_by_hw_level () =
  let linked = load_hw 99 [ app_calling_copy 1; libstring () ] in
  let addr_of f = Option.get (Loader.func_addr linked ~mname:"libstring" ~fname:f) in
  checki "best hw -> avx" (addr_of "copy_avx") (resolved_copy 99);
  checki "mid hw -> sse" (addr_of "copy_sse") (resolved_copy 1);
  checki "no features -> generic" (addr_of "copy_generic") (resolved_copy 0)

let test_ifunc_lazy_resolution_binds_choice () =
  let linked = load_hw 0 [ app_calling_copy 3; libstring () ] in
  let p = Process.create linked in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "copy") in
  let generic =
    Option.get (Loader.func_addr linked ~mname:"libstring" ~fname:"copy_generic")
  in
  checki "GOT bound to selected impl" generic (Memory.read (Process.memory p) slot)

let test_ifunc_calls_are_skipped_like_plt_calls () =
  let skip_cfg = { Skip.default_config with verify_targets = true } in
  let sim = Sim.create ~skip_cfg ~mode:Sim.Enhanced [ app_calling_copy 1; libstring () ] in
  for _ = 1 to 10 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  let c = Sim.counters sim in
  checki "ifunc calls counted" 10 c.C.tramp_calls;
  checki "skipped after training" 8 c.C.tramp_skips

let test_ifunc_hw_levels_give_different_work () =
  let retired hw_level =
    let linked = load_hw hw_level [ app_calling_copy 4; libstring () ] in
    let p = Process.create linked in
    Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
    Process.retired p
  in
  (* The generic implementation executes more instructions than AVX. *)
  checkb "generic slower" true (retired 0 > retired 99)

(* ---------------- virtual dispatch ---------------- *)

let shapes () =
  Objfile.create_exn ~name:"libshapes"
    [
      func "circle_area" [ Body.Compute 4 ];
      func "square_area" [ Body.Compute 7 ];
    ]

let app_virtual calls =
  Objfile.create_exn ~name:"app"
    ~vtables:[ { Objfile.vname = "shape_vt"; entries = [ "circle_area"; "square_area" ] } ]
    [
      func ~exported:false "main"
        (List.concat_map
           (fun slot -> [ Body.Call_virtual { vtable = "shape_vt"; slot } ])
           calls);
    ]

let test_vtable_validation () =
  checkb "unknown vtable" true
    (Result.is_error
       (Objfile.create ~name:"m"
          [ func "f" [ Body.Call_virtual { vtable = "ghost"; slot = 0 } ] ]));
  checkb "slot out of range" true
    (Result.is_error
       (Objfile.create ~name:"m"
          ~vtables:[ { Objfile.vname = "v"; entries = [ "f" ] } ]
          [ func "f" [ Body.Call_virtual { vtable = "v"; slot = 1 } ] ]))

let test_vtable_relocated_at_load () =
  let linked = Loader.load_exn [ app_virtual [ 0 ]; shapes () ] in
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let base = Option.get (Image.vtable_base app "shape_vt") in
  checkb "vtable in data section" true
    (base >= app.Image.data.base && base < app.Image.data.base + app.Image.data.size);
  let circle =
    Option.get (Loader.func_addr linked ~mname:"libshapes" ~fname:"circle_area")
  in
  let square =
    Option.get (Loader.func_addr linked ~mname:"libshapes" ~fname:"square_area")
  in
  checki "slot 0" circle (List.assoc base linked.Loader.init_mem);
  checki "slot 1" square (List.assoc (base + 8) linked.Loader.init_mem)

let test_vtable_undefined_entry_rejected () =
  let app =
    Objfile.create_exn ~name:"app"
      ~vtables:[ { Objfile.vname = "v"; entries = [ "nowhere" ] } ]
      [ func ~exported:false "main" [ Body.Call_virtual { vtable = "v"; slot = 0 } ] ]
  in
  checkb "load fails" true (Result.is_error (Loader.load [ app ]))

let test_virtual_dispatch_executes_target () =
  (* Distinct slots execute different amounts of work. *)
  let retired calls =
    let linked = Loader.load_exn [ app_virtual calls; shapes () ] in
    let p = Process.create linked in
    Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
    Process.retired p
  in
  checkb "square does more work" true (retired [ 1 ] > retired [ 0 ])

let test_virtual_calls_do_not_engage_skip_hardware () =
  (* §2.4.2: the instruction sequence differs from PLT calls, so the
     mechanism neither counts nor skips them. *)
  let skip_cfg = { Skip.default_config with verify_targets = true } in
  let sim = Sim.create ~skip_cfg ~mode:Sim.Enhanced [ app_virtual [ 0; 1; 0 ]; shapes () ] in
  for _ = 1 to 10 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  let c = Sim.counters sim in
  checki "no trampoline calls" 0 c.C.tramp_calls;
  checki "no skips" 0 c.C.tramp_skips;
  checki "nothing inserted in ABTB" 0
    (Dlink_uarch.Abtb.valid_count (Skip.abtb (Option.get (Sim.skip sim))))

let test_virtual_and_plt_mix_arch_equivalent () =
  let app =
    Objfile.create_exn ~name:"app"
      ~vtables:[ { Objfile.vname = "vt"; entries = [ "circle_area" ] } ]
      [
        func ~exported:false "main"
          [
            Body.Loop
              {
                mean_iters = 10.0;
                body =
                  [
                    Body.Call_import "square_area";
                    Body.Call_virtual { vtable = "vt"; slot = 0 };
                    Body.Touch { loads = 1; stores = 1 };
                  ];
              };
          ];
      ]
  in
  let fp mode =
    let sim = Sim.create ~mode [ app; shapes () ] in
    Sim.call sim ~mname:"app" ~fname:"main";
    Process.arch_fingerprint (Sim.process sim)
  in
  checki "base = enhanced" (fp Sim.Base) (fp Sim.Enhanced)

let test_vtable_area_disjoint_from_touch_region () =
  (* Touch stores must never overwrite relocated vtable slots. *)
  let app =
    Objfile.create_exn ~name:"app" ~data_bytes:256
      ~vtables:[ { Objfile.vname = "vt"; entries = [ "circle_area" ] } ]
      [
        func ~exported:false "main"
          [
            Body.Loop
              {
                mean_iters = 60.0;
                body =
                  [
                    Body.Touch { loads = 0; stores = 4 };
                    Body.Call_virtual { vtable = "vt"; slot = 0 };
                  ];
              };
          ];
      ]
  in
  let linked = Loader.load_exn [ app; shapes () ] in
  let p = Process.create linked in
  (* If a Touch store clobbered the vtable, the virtual call would jump to
     a garbage hash value and fault. *)
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  checkb "survived" true (Process.retired p > 0)

(* ---------------- explicit invalidation (§3.4) ---------------- *)

let explicit_cfg =
  {
    Skip.default_config with
    coherence = Skip.Explicit_invalidate;
    verify_targets = true;
  }

let libx () =
  Objfile.create_exn ~name:"libx"
    [ func "f" [ Body.Compute 5 ]; func "f2" [ Body.Compute 9 ] ]

let app_f () =
  Objfile.create_exn ~name:"app"
    [ func ~exported:false "main" [ Body.Call_import "f" ] ]

let rebind_f sim =
  let linked = Sim.linked sim in
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "f") in
  let f2 = Option.get (Loader.func_addr linked ~mname:"libx" ~fname:"f2") in
  Memory.write (Process.memory (Sim.process sim)) slot f2;
  (* The store retires like any other. *)
  Option.iter
    (fun skip ->
      Skip.on_retire skip
        (Dlink_mach.Event.make ~store:slot 0))
    (Sim.skip sim)

let test_explicit_mode_skips_normally () =
  let sim = Sim.create ~skip_cfg:explicit_cfg ~mode:Sim.Enhanced [ app_f (); libx () ] in
  for _ = 1 to 10 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  checki "skips" 8 (Sim.counters sim).C.tramp_skips

let test_explicit_mode_misspeculates_without_flush () =
  let sim = Sim.create ~skip_cfg:explicit_cfg ~mode:Sim.Enhanced [ app_f (); libx () ] in
  for _ = 1 to 5 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  rebind_f sim;
  (* No explicit invalidate: the stale ABTB entry now disagrees with the
     GOT, and the next skip is a misspeculation. *)
  checkb "misspeculation detected" true
    (try
       Sim.call sim ~mname:"app" ~fname:"main";
       false
     with Skip.Misspeculation _ -> true)

let test_explicit_mode_safe_with_flush () =
  let sim = Sim.create ~skip_cfg:explicit_cfg ~mode:Sim.Enhanced [ app_f (); libx () ] in
  for _ = 1 to 5 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  rebind_f sim;
  Option.iter Skip.flush (Sim.skip sim);
  Sim.call sim ~mname:"app" ~fname:"main";
  checkb "safe after explicit invalidate" true true

let test_bloom_mode_needs_no_flush () =
  (* Same scenario under the primary design: the store clears automatically. *)
  let cfg = { Skip.default_config with verify_targets = true } in
  let sim = Sim.create ~skip_cfg:cfg ~mode:Sim.Enhanced [ app_f (); libx () ] in
  for _ = 1 to 5 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  rebind_f sim;
  Sim.call sim ~mname:"app" ~fname:"main";
  checkb "transparent" true ((Sim.counters sim).C.abtb_clears >= 1)

let () =
  Alcotest.run "dlink_extensions"
    [
      ( "ifunc",
        [
          Alcotest.test_case "validation" `Quick test_ifunc_validation;
          Alcotest.test_case "exported" `Quick test_ifunc_exported;
          Alcotest.test_case "hw-level selection" `Quick test_ifunc_selects_by_hw_level;
          Alcotest.test_case "lazy binding binds choice" `Quick
            test_ifunc_lazy_resolution_binds_choice;
          Alcotest.test_case "skipped like PLT calls" `Quick
            test_ifunc_calls_are_skipped_like_plt_calls;
          Alcotest.test_case "levels change work" `Quick
            test_ifunc_hw_levels_give_different_work;
        ] );
      ( "virtual",
        [
          Alcotest.test_case "validation" `Quick test_vtable_validation;
          Alcotest.test_case "relocated at load" `Quick test_vtable_relocated_at_load;
          Alcotest.test_case "undefined entry rejected" `Quick
            test_vtable_undefined_entry_rejected;
          Alcotest.test_case "dispatch executes target" `Quick
            test_virtual_dispatch_executes_target;
          Alcotest.test_case "does not engage skip hardware" `Quick
            test_virtual_calls_do_not_engage_skip_hardware;
          Alcotest.test_case "mixed arch equivalence" `Quick
            test_virtual_and_plt_mix_arch_equivalent;
          Alcotest.test_case "vtable/touch disjoint" `Quick
            test_vtable_area_disjoint_from_touch_region;
        ] );
      ( "explicit_invalidate",
        [
          Alcotest.test_case "skips normally" `Quick test_explicit_mode_skips_normally;
          Alcotest.test_case "misspeculates without flush" `Quick
            test_explicit_mode_misspeculates_without_flush;
          Alcotest.test_case "safe with flush" `Quick test_explicit_mode_safe_with_flush;
          Alcotest.test_case "bloom needs no flush" `Quick test_bloom_mode_needs_no_flush;
        ] );
    ]
