(* Library rebinding safety demo (paper Sections 3.2-3.3).

   The whole point of the Bloom-filter guard is that the mechanism stays
   architecturally correct when a GOT entry changes — e.g. a library is
   unloaded and replaced, or a symbol is re-resolved.  This example:

   1. trains the ABTB on a hot library call (calls are skipped),
   2. rebinds the symbol's GOT slot to a different implementation,
   3. shows the retired store hits the Bloom filter and clears the ABTB,
   4. shows the next call executes the trampoline, reaches the *new*
      implementation, and re-trains the ABTB for further skipping.

   The simulator runs with [verify_targets] on: a single stale skip would
   raise [Skip.Misspeculation]. *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
module Loader = Dlink_linker.Loader
module Space = Dlink_linker.Space
module Image = Dlink_linker.Image
module Memory = Dlink_mach.Memory
module Process = Dlink_mach.Process
module C = Dlink_uarch.Counters
module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip

let app =
  Objfile.create_exn ~name:"app"
    [
      { Objfile.fname = "main"; exported = false; body = [ Body.Call_import "impl" ] };
    ]

(* Two candidate implementations of the same interface symbol, like a
   library upgrade: v1 exports "impl"; v2's function sits at a different
   address. *)
let libv =
  Objfile.create_exn ~name:"libv"
    [
      { Objfile.fname = "impl"; exported = true; body = [ Body.Compute 5 ] };
      { Objfile.fname = "impl_v2"; exported = true; body = [ Body.Compute 9 ] };
    ]

let () =
  let skip_cfg = { Skip.default_config with verify_targets = true } in
  let sim = Sim.create ~skip_cfg ~mode:Sim.Enhanced [ app; libv ] in
  let c = Sim.counters sim in
  let stat tag =
    Printf.printf "%-28s calls=%-3d skips=%-3d abtb-clears=%d\n%!" tag
      c.C.tramp_calls c.C.tramp_skips c.C.abtb_clears
  in
  for _ = 1 to 5 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  stat "after 5 calls (v1 bound):";

  (* Rebind: write impl_v2's address into the GOT slot for "impl", as a
     dynamic loader would when replacing the library.  The store retires
     through the skip controller exactly like any other store. *)
  let linked = Sim.linked sim in
  let appimg = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot appimg "impl") in
  let v2 = Option.get (Loader.func_addr linked ~mname:"libv" ~fname:"impl_v2") in
  Memory.write (Process.memory (Sim.process sim)) slot v2;
  Option.iter
    (fun skip ->
      Skip.on_retire skip
        (Dlink_mach.Event.make ~store:slot 0))
    (Sim.skip sim);
  stat "after GOT rebinding store:";

  for _ = 1 to 5 do
    Sim.call sim ~mname:"app" ~fname:"main"
  done;
  stat "after 5 more calls (v2):";
  print_endline
    "\nno Misspeculation was raised: every skip matched the live GOT state,\n\
     and the rebinding store cleared the ABTB exactly once (Bloom filter\n\
     has no false negatives)."
