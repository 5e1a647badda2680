open Dlink_isa
module Loader = Dlink_linker.Loader
module Space = Dlink_linker.Space
module Image = Dlink_linker.Image
module Linkmap = Dlink_linker.Linkmap
module Site_hash = Dlink_util.Site_hash

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

type hooks = {
  on_fetch_call : pc:Addr.t -> arch_target:Addr.t -> Addr.t;
  on_retire : Event.t -> unit;
}

let default_hooks =
  { on_fetch_call = (fun ~pc:_ ~arch_target -> arch_target); on_retire = ignore }

type t = {
  linked : Loader.t;
  mem : Memory.t;
  mutable pc : Addr.t;
  mutable sp : Addr.t;
  mutable retired : int;
  mutable site_counts : int array;
  hooks : hooks;
  ev : Event.t;
}

(* Sentinel return address used by [call]; never a mapped code address. *)
let sentinel = 0x10

let create ?(hooks = default_hooks) linked =
  let mem = Memory.create () in
  List.iter (fun (a, v) -> Memory.write mem a v) linked.Loader.init_mem;
  {
    linked;
    mem;
    pc = sentinel;
    sp = linked.Loader.stack_top;
    retired = 0;
    site_counts = Array.make (max 1 linked.Loader.n_sites) 0;
    hooks;
    ev = Event.make sentinel;
  }

let linked t = t.linked
let memory t = t.mem
let pc t = t.pc
let sp t = t.sp
let retired t = t.retired

(* Runtime-mapped modules (dlopen) allocate site ids past the load-time
   count, so the per-site counters grow on demand. *)
let ensure_site t site =
  let n = Array.length t.site_counts in
  if site >= n then begin
    let grown = Array.make (max (site + 1) (2 * n)) 0 in
    Array.blit t.site_counts 0 grown 0 n;
    t.site_counts <- grown
  end

let bump_site t site =
  ensure_site t site;
  let c = t.site_counts.(site) in
  t.site_counts.(site) <- c + 1;
  c

(* Data accesses follow an 80/20 locality pattern: most touches land in a
   small hot prefix of the region, the rest are spread uniformly.  Uniform
   addressing would thrash the D-cache far beyond anything real software
   does; hot/cold split reproduces realistic hit rates while still
   exercising the region's full page footprint. *)
let hot_words_cap = 512 (* 4 KiB hot prefix *)
let hot_permille = 800

let ref_addr t = function
  | Insn.Fixed a -> a
  | Insn.Region { site; base; size } ->
      let words = size / 8 in
      let count = bump_site t site in
      let h = Site_hash.mix2 site count in
      let hot = h land 1023 < hot_permille * 1024 / 1000 in
      let bound = if hot then min words hot_words_cap else words in
      base + (8 * (h lsr 10 mod bound))

let stored_value = function
  | Insn.Fixed a -> Site_hash.mix2 a 0
  | Insn.Region { site; base = _; size = _ } -> Site_hash.mix2 site 1

(* The retire record, filled in place for every step and handed to the
   hook.  [plt_call]/[got_store] are classified against this process's own
   loader, whose PLT and GOT predicates track runtime-mapped modules. *)
let retire t =
  let ev = t.ev and linked = t.linked in
  ev.plt_call <-
    (if ev.kind = Event.Kind.call_direct then Loader.is_plt_entry linked ev.aux
     else
       ev.kind = Event.Kind.call_indirect
       && Loader.is_plt_entry linked ev.target);
  ev.got_store <- ev.store <> Addr.none && Loader.in_any_got linked ev.store;
  t.retired <- t.retired + 1;
  t.hooks.on_retire ev

let retire_branch t kind ~target ~aux =
  let ev = t.ev in
  ev.kind <- kind;
  ev.target <- target;
  ev.aux <- aux;
  retire t

let step t =
  let pc = t.pc in
  let img =
    match Space.image_at t.linked.Loader.space pc with
    | Some img -> img
    | None -> fault "invalid fetch at %s" (Addr.to_hex pc)
  in
  let insn =
    match Image.fetch img pc with
    | Some insn -> insn
    | None -> fault "invalid fetch at %s" (Addr.to_hex pc)
  in
  let size = Insn.byte_size insn in
  let ev = t.ev in
  ev.pc <- pc;
  ev.size <- size;
  ev.in_plt <- Image.in_plt img pc;
  ev.kind <- Event.Kind.none;
  ev.taken <- false;
  ev.load <- Addr.none;
  ev.load2 <- Addr.none;
  ev.store <- Addr.none;
  ev.target <- Addr.none;
  ev.aux <- Addr.none;
  match insn with
  | Insn.Alu ->
      t.pc <- pc + size;
      retire t
  | Insn.Load mref ->
      let a = ref_addr t mref in
      ignore (Memory.read t.mem a);
      t.pc <- pc + size;
      ev.load <- a;
      retire t
  | Insn.Store mref ->
      let a = ref_addr t mref in
      Memory.write t.mem a (stored_value mref);
      t.pc <- pc + size;
      ev.store <- a;
      retire t
  | Insn.Call target ->
      let actual = t.hooks.on_fetch_call ~pc ~arch_target:target in
      t.sp <- t.sp - 8;
      Memory.write t.mem t.sp (pc + size);
      t.pc <- actual;
      ev.store <- t.sp;
      retire_branch t Event.Kind.call_direct ~target:actual ~aux:target
  | Insn.Call_mem slot ->
      let target = Memory.read t.mem slot in
      if target = 0 then fault "indirect call through null slot %s" (Addr.to_hex slot);
      t.sp <- t.sp - 8;
      Memory.write t.mem t.sp (pc + size);
      t.pc <- target;
      ev.load <- slot;
      ev.store <- t.sp;
      retire_branch t Event.Kind.call_indirect ~target ~aux:slot
  | Insn.Jmp target ->
      t.pc <- target;
      retire_branch t Event.Kind.jump_direct ~target ~aux:Addr.none
  | Insn.Jmp_mem slot ->
      let target = Memory.read t.mem slot in
      if target = 0 then fault "indirect jump through null slot %s" (Addr.to_hex slot);
      t.pc <- target;
      ev.load <- slot;
      retire_branch t Event.Kind.jump_indirect ~target ~aux:slot
  | Insn.Cond { target; site; p_taken } ->
      let count = bump_site t site in
      let taken = Site_hash.bernoulli ~site ~count ~p:p_taken in
      t.pc <- (if taken then target else pc + size);
      ev.taken <- taken;
      retire_branch t Event.Kind.cond_branch ~target ~aux:Addr.none
  | Insn.Push_info i ->
      t.sp <- t.sp - 8;
      Memory.write t.mem t.sp i;
      t.pc <- pc + size;
      ev.store <- t.sp;
      retire t
  | Insn.Resolve ->
      (* Stack (top first): module id pushed by PLT0, then the relocation
         index pushed by the PLT entry.  Both are consumed, the symbol is
         bound, the GOT slot written, and control jumps to the target. *)
      let module_id = Memory.read t.mem t.sp in
      let reloc = Memory.read t.mem (t.sp + 8) in
      let caller =
        match Space.image_by_id t.linked.Loader.space module_id with
        | Some img -> img
        | None -> fault "resolver: unknown module id %d" module_id
      in
      if reloc < 0 || reloc >= Array.length caller.Image.reloc_syms then
        fault "resolver: bad relocation index %d in %s" reloc caller.Image.name;
      let sym = caller.Image.reloc_syms.(reloc) in
      let target =
        match Linkmap.lookup_addr t.linked.Loader.linkmap sym with
        | Some a -> a
        | None -> fault "resolver: undefined symbol %s" sym
      in
      let slot =
        match Image.got_slot caller sym with
        | Some s -> s
        | None -> fault "resolver: no GOT slot for %s in %s" sym caller.Image.name
      in
      Memory.write t.mem slot target;
      let old_sp = t.sp in
      t.sp <- t.sp + 16;
      t.pc <- target;
      ev.load <- old_sp;
      ev.load2 <- old_sp + 8;
      ev.store <- slot;
      retire_branch t Event.Kind.jump_resolver ~target ~aux:Addr.none
  | Insn.Ret ->
      let target = Memory.read t.mem t.sp in
      let old_sp = t.sp in
      t.sp <- t.sp + 8;
      t.pc <- target;
      ev.load <- old_sp;
      retire_branch t Event.Kind.return ~target ~aux:Addr.none
  | Insn.Halt ->
      t.pc <- sentinel;
      retire t

let call t ?(fuel = 50_000_000) addr =
  t.sp <- t.sp - 8;
  Memory.write t.mem t.sp sentinel;
  t.pc <- addr;
  let remaining = ref fuel in
  while t.pc <> sentinel do
    if !remaining <= 0 then fault "fuel exhausted at %s" (Addr.to_hex t.pc);
    decr remaining;
    step t
  done

let arch_fingerprint t = Site_hash.mix2 (Memory.fingerprint t.mem) t.sp

let resync_arch t ~from_ =
  Memory.blit ~src:from_.mem ~dst:t.mem;
  t.sp <- from_.sp;
  t.pc <- from_.pc;
  ensure_site t (Array.length from_.site_counts - 1);
  let n = Array.length from_.site_counts in
  Array.blit from_.site_counts 0 t.site_counts 0 n;
  Array.fill t.site_counts n (Array.length t.site_counts - n) 0
