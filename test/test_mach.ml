(* Tests for Dlink_mach: memory, the interpreter, lazy resolution. *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
module Loader = Dlink_linker.Loader
module Space = Dlink_linker.Space
module Image = Dlink_linker.Image
module Mode = Dlink_linker.Mode
module Addr = Dlink_isa.Addr
open Dlink_mach

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let func ?(exported = true) fname body = { Objfile.fname; exported; body }

let lib name exports body =
  Objfile.create_exn ~name (List.map (fun e -> func e body) exports)

let simple_program ?(mode = Mode.Lazy_binding) ?(main_body = [ Body.Call_import "f" ])
    ?(f_body = [ Body.Compute 4 ]) () =
  let app = Objfile.create_exn ~name:"app" [ func ~exported:false "main" main_body ] in
  Loader.load_exn
    ~opts:{ Loader.default_options with mode }
    [ app; lib "libx" [ "f" ] f_body ]

let run_main ?hooks linked =
  let p = Process.create ?hooks linked in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  p

(* ---------------- Memory ---------------- *)

let test_memory_read_default_zero () =
  let m = Memory.create () in
  checki "unwritten" 0 (Memory.read m 0x1000)

let test_memory_write_read () =
  let m = Memory.create () in
  Memory.write m 0x1000 42;
  checki "written" 42 (Memory.read m 0x1000)

let test_memory_zero_write_erases () =
  let m = Memory.create () in
  Memory.write m 8 7;
  Memory.write m 8 0;
  checki "no cells" 0 (Memory.cell_count m)

let test_memory_fingerprint_order_independent () =
  let m1 = Memory.create () and m2 = Memory.create () in
  Memory.write m1 8 1;
  Memory.write m1 16 2;
  Memory.write m2 16 2;
  Memory.write m2 8 1;
  checki "same fingerprint" (Memory.fingerprint m1) (Memory.fingerprint m2)

let test_memory_copy_isolated () =
  let m = Memory.create () in
  Memory.write m 8 1;
  let c = Memory.copy m in
  Memory.write c 8 9;
  checki "original untouched" 1 (Memory.read m 8)

(* ---------------- interpreter basics ---------------- *)

let test_call_runs_to_completion () =
  let linked = simple_program () in
  let p = run_main linked in
  checkb "retired > 0" true (Process.retired p > 0)

let test_sp_restored_after_call () =
  let linked = simple_program () in
  let p = Process.create linked in
  let sp0 = Process.sp p in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  checki "stack balanced" sp0 (Process.sp p)

let test_lazy_resolution_writes_got () =
  let linked = simple_program () in
  let p = run_main linked in
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "f") in
  let f = Option.get (Loader.func_addr linked ~mname:"libx" ~fname:"f") in
  checki "GOT bound to f" f (Memory.read (Process.memory p) slot)

let test_resolver_runs_once_per_symbol () =
  (* Two calls to the same import: resolver work appears once. *)
  let linked =
    simple_program ~main_body:[ Body.Call_import "f"; Body.Call_import "f" ] ()
  in
  let resolver_jumps = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        (fun ev ->
          if ev.Event.kind = Event.Kind.jump_resolver then incr resolver_jumps);
    }
  in
  ignore (run_main ~hooks linked);
  checki "one resolution" 1 !resolver_jumps

let test_eager_mode_never_resolves () =
  let linked = simple_program ~mode:Mode.Eager_binding () in
  let resolver_jumps = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        (fun ev ->
          if ev.Event.kind = Event.Kind.jump_resolver then incr resolver_jumps);
    }
  in
  ignore (run_main ~hooks linked);
  checki "no resolution" 0 !resolver_jumps

let test_static_mode_no_plt_events () =
  let linked = simple_program ~mode:Mode.Static_link () in
  let plt_events = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire = (fun ev -> if ev.Event.in_plt then incr plt_events);
    }
  in
  ignore (run_main ~hooks linked);
  checki "no plt instructions" 0 !plt_events

let test_lazy_first_call_executes_five_plt_instructions () =
  (* First call: entry jmp_mem + push + jmp plt0 + plt0 push + plt0 jmp_mem. *)
  let linked = simple_program () in
  let plt_events = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire = (fun ev -> if ev.Event.in_plt then incr plt_events);
    }
  in
  ignore (run_main ~hooks linked);
  checki "five stub instructions" 5 !plt_events

let test_lazy_second_call_executes_one_plt_instruction () =
  let linked =
    simple_program ~main_body:[ Body.Call_import "f"; Body.Call_import "f" ] ()
  in
  let plt_events = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire = (fun ev -> if ev.Event.in_plt then incr plt_events);
    }
  in
  ignore (run_main ~hooks linked);
  checki "5 + 1" 6 !plt_events

let test_cond_loop_terminates () =
  let linked =
    simple_program
      ~main_body:[ Body.Loop { mean_iters = 5.0; body = [ Body.Compute 1 ] } ]
      ()
  in
  let p = run_main linked in
  checkb "terminated" true (Process.retired p > 0)

let test_fuel_exhaustion_raises () =
  let linked =
    simple_program ~main_body:[ Body.Loop { mean_iters = 1e9; body = [ Body.Compute 1 ] } ] ()
  in
  let p = Process.create linked in
  let main = Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main") in
  checkb "fault raised" true
    (try
       Process.call p ~fuel:1000 main;
       false
     with Process.Fault _ -> true)

let test_invalid_fetch_raises () =
  let linked = simple_program () in
  let p = Process.create linked in
  checkb "fault" true
    (try
       Process.call p 0x123;
       false
     with Process.Fault _ -> true)

(* ---------------- failure injection ---------------- *)

let test_dangling_extra_import_faults_cleanly () =
  (* An extra import has a PLT entry but no definition.  Under eager
     binding its GOT slot is null; calling it must fault, not wander. *)
  let app =
    Objfile.create_exn ~name:"app" ~extra_imports:[ "phantom" ]
      [ func ~exported:false "main" [ Body.Call_import "f" ] ]
  in
  let linked =
    Loader.load_exn
      ~opts:{ Loader.default_options with mode = Mode.Eager_binding }
      [ app; lib "libx" [ "f" ] [ Body.Compute 2 ] ]
  in
  let appimg = Option.get (Space.image_by_name linked.Loader.space "app") in
  let phantom_plt = Option.get (Image.plt_entry appimg "phantom") in
  let p = Process.create linked in
  checkb "null-slot fault" true
    (try
       Process.call p phantom_plt;
       false
     with Process.Fault msg ->
       String.length msg > 0)

let test_dangling_lazy_import_fails_in_resolver () =
  (* Under lazy binding the first call reaches the resolver, which cannot
     bind the symbol and must report it. *)
  let app =
    Objfile.create_exn ~name:"app" ~extra_imports:[ "phantom" ]
      [ func ~exported:false "main" [ Body.Call_import "f" ] ]
  in
  let linked =
    Loader.load_exn [ app; lib "libx" [ "f" ] [ Body.Compute 2 ] ]
  in
  let appimg = Option.get (Space.image_by_name linked.Loader.space "app") in
  let phantom_plt = Option.get (Image.plt_entry appimg "phantom") in
  let p = Process.create linked in
  checkb "resolver fault names symbol" true
    (try
       Process.call p phantom_plt;
       false
     with Process.Fault msg ->
       let rec contains i =
         i + 7 <= String.length msg
         && (String.sub msg i 7 = "phantom" || contains (i + 1))
       in
       contains 0)

let test_corrupted_got_faults () =
  (* A GOT slot overwritten with zero makes the trampoline fault rather
     than jump into the void. *)
  let linked = simple_program () in
  let p = Process.create linked in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "f") in
  Memory.write (Process.memory p) slot 0;
  checkb "fault on null GOT" true
    (try
       Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
       false
     with Process.Fault _ -> true)

(* ---------------- determinism ---------------- *)

let test_run_determinism () =
  let run () =
    let linked =
      simple_program
        ~main_body:
          [
            Body.Loop
              {
                mean_iters = 10.0;
                body =
                  [
                    Body.Compute 2;
                    Body.Touch { loads = 2; stores = 1 };
                    Body.Call_import "f";
                  ];
              };
          ]
        ~f_body:
          [ Body.If { p = 0.5; then_ = [ Body.Compute 3 ]; else_ = [ Body.Compute 1 ] } ]
        ()
    in
    let p = run_main linked in
    (Process.retired p, Process.arch_fingerprint p)
  in
  let r1, f1 = run () and r2, f2 = run () in
  checki "same retired" r1 r2;
  checki "same fingerprint" f1 f2

let test_redirect_hook_preserves_arch_state () =
  (* Redirecting a PLT call straight to the function must leave identical
     architectural state once the GOT is warm (the skip mechanism's core
     safety property, checked here at the interpreter level). *)
  let body =
    [
      Body.Call_import "f";
      (* warm the GOT *)
      Body.Call_import "f";
      Body.Call_import "f";
    ]
  in
  let run redirect =
    let linked = simple_program ~main_body:body () in
    let f = Option.get (Loader.func_addr linked ~mname:"libx" ~fname:"f") in
    let app = Option.get (Space.image_by_name linked.Loader.space "app") in
    let entry = Option.get (Image.plt_entry app "f") in
    let calls = ref 0 in
    let hooks =
      {
        Process.default_hooks with
        on_fetch_call =
          (fun ~pc:_ ~arch_target ->
            incr calls;
            (* Skip only after the first two calls (GOT warm). *)
            if redirect && arch_target = entry && !calls > 2 then f else arch_target);
      }
    in
    let p = run_main ~hooks linked in
    Process.arch_fingerprint p
  in
  checki "fingerprints equal" (run false) (run true)

(* ---------------- events ---------------- *)

let test_call_event_shape () =
  let linked = simple_program () in
  let seen = ref None in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        (fun ev ->
          if ev.Event.kind = Event.Kind.call_direct && !seen = None then
            seen := Some (ev.Event.target = ev.Event.aux, ev.Event.store <> Addr.none));
    }
  in
  ignore (run_main ~hooks linked);
  match !seen with
  | Some (same, pushes) ->
      checkb "unredirected" true same;
      checkb "pushes return addr" true pushes
  | None -> Alcotest.fail "no call event"

let test_trampoline_event_has_got_load () =
  let linked = simple_program () in
  let got_loads = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        (fun ev ->
          if ev.Event.kind = Event.Kind.jump_indirect && ev.Event.load = ev.Event.aux
          then incr got_loads);
    }
  in
  ignore (run_main ~hooks linked);
  checkb "trampoline loads its GOT slot" true (!got_loads >= 1)

(* The interpreter classifies its own events: exactly the direct calls
   whose architectural target is a PLT entry carry [plt_call], and exactly
   the resolver's GOT write carries [got_store].  The expected sets are
   derived from the images' symbol tables, not from the loader's
   predicates the interpreter consults. *)
let test_event_classification () =
  let linked =
    simple_program ~main_body:[ Body.Call_import "f"; Body.Call_import "f" ] ()
  in
  let images = Space.images linked.Loader.space in
  let plt_entries = Hashtbl.create 16 in
  Array.iter
    (fun img -> Hashtbl.iter (fun _ a -> Hashtbl.replace plt_entries a ()) img.Image.plt_entries)
    images;
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let f_slot = Option.get (Image.got_slot app "f") in
  let evs = ref [] in
  let hooks =
    { Process.default_hooks with on_retire = (fun ev -> evs := Event.copy ev :: !evs) }
  in
  ignore (run_main ~hooks linked);
  let evs = List.rev !evs in
  let plt_calls = List.filter (fun ev -> ev.Event.plt_call) evs in
  checki "both calls to f classified" 2 (List.length plt_calls);
  List.iter
    (fun (ev : Event.t) ->
      checkb
        (Printf.sprintf "plt_call at %s" (Addr.to_hex ev.pc))
        (ev.kind = Event.Kind.call_direct && Hashtbl.mem plt_entries ev.aux)
        ev.plt_call)
    evs;
  match List.filter (fun ev -> ev.Event.got_store) evs with
  | [ ev ] ->
      checki "resolver's jump" Event.Kind.jump_resolver ev.Event.kind;
      checki "stores f's GOT slot" f_slot ev.Event.store
  | l -> Alcotest.failf "expected one GOT store, saw %d" (List.length l)

let test_event_count_matches_retired () =
  let linked = simple_program () in
  let events = ref 0 in
  let hooks =
    { Process.default_hooks with on_retire = (fun _ -> incr events) }
  in
  let p = run_main ~hooks linked in
  checki "one event per retired" (Process.retired p) !events

(* ---------------- property tests ---------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"region accesses stay within the region" ~count:50
      (QCheck.int_range 1 1000)
      (fun seed ->
        ignore seed;
        let data_bytes = 4096 in
        let app =
          Objfile.create_exn ~name:"app" ~data_bytes
            [
              func ~exported:false "main"
                [
                  Body.Loop
                    {
                      mean_iters = 20.0;
                      body = [ Body.Touch { loads = 2; stores = 2 } ];
                    };
                ];
            ]
        in
        let linked = Loader.load_exn [ app ] in
        let img = Option.get (Space.image_by_name linked.Loader.space "app") in
        let ok = ref true in
        let hooks =
          {
            Process.default_hooks with
            on_retire =
              (fun ev ->
                let in_data a =
                  a >= img.Image.data.base
                  && a < img.Image.data.base + img.Image.data.size
                in
                let in_stack a =
                  a >= linked.Loader.stack_base && a <= linked.Loader.stack_top
                in
                let check_side a =
                  if a <> Addr.none && not (in_data a || in_stack a) then ok := false
                in
                check_side ev.Event.load;
                check_side ev.Event.store)
          }
        in
        let p = Process.create ~hooks linked in
        Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
        !ok);
    QCheck.Test.make ~name:"arch fingerprint independent of uarch observers" ~count:30
      QCheck.unit
      (fun () ->
        let linked = simple_program () in
        let p1 = run_main linked in
        let p2 =
          run_main ~hooks:{ Process.default_hooks with on_retire = ignore } linked
        in
        Process.arch_fingerprint p1 = Process.arch_fingerprint p2);
  ]

let () =
  Alcotest.run "dlink_mach"
    [
      ( "memory",
        [
          Alcotest.test_case "default zero" `Quick test_memory_read_default_zero;
          Alcotest.test_case "write/read" `Quick test_memory_write_read;
          Alcotest.test_case "zero erases" `Quick test_memory_zero_write_erases;
          Alcotest.test_case "fingerprint order-free" `Quick
            test_memory_fingerprint_order_independent;
          Alcotest.test_case "copy isolated" `Quick test_memory_copy_isolated;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "runs to completion" `Quick test_call_runs_to_completion;
          Alcotest.test_case "stack balanced" `Quick test_sp_restored_after_call;
          Alcotest.test_case "lazy resolution writes GOT" `Quick test_lazy_resolution_writes_got;
          Alcotest.test_case "resolver once per symbol" `Quick test_resolver_runs_once_per_symbol;
          Alcotest.test_case "eager never resolves" `Quick test_eager_mode_never_resolves;
          Alcotest.test_case "static no plt events" `Quick test_static_mode_no_plt_events;
          Alcotest.test_case "first call: 5 stub insns" `Quick
            test_lazy_first_call_executes_five_plt_instructions;
          Alcotest.test_case "second call: 1 stub insn" `Quick
            test_lazy_second_call_executes_one_plt_instruction;
          Alcotest.test_case "loops terminate" `Quick test_cond_loop_terminates;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_raises;
          Alcotest.test_case "invalid fetch" `Quick test_invalid_fetch_raises;
        ] );
      ( "faults",
        [
          Alcotest.test_case "dangling eager import" `Quick
            test_dangling_extra_import_faults_cleanly;
          Alcotest.test_case "dangling lazy import" `Quick
            test_dangling_lazy_import_fails_in_resolver;
          Alcotest.test_case "corrupted GOT" `Quick test_corrupted_got_faults;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-identical reruns" `Quick test_run_determinism;
          Alcotest.test_case "redirect preserves state" `Quick
            test_redirect_hook_preserves_arch_state;
        ] );
      ( "events",
        [
          Alcotest.test_case "call event shape" `Quick test_call_event_shape;
          Alcotest.test_case "trampoline GOT load" `Quick test_trampoline_event_has_got_load;
          Alcotest.test_case "event per retired" `Quick test_event_count_matches_retired;
          Alcotest.test_case "plt_call/got_store classification" `Quick
            test_event_classification;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
