(* Tests for Dlink_uarch: tables, caches, TLBs, predictors, Bloom, ABTB,
   counters, and the accounting engine. *)

open Dlink_uarch
module Event = Dlink_mach.Event

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- Assoc_table ---------------- *)

let test_assoc_hit_after_insert () =
  let t = Assoc_table.create ~sets:4 ~ways:2 in
  Assoc_table.insert t ~tag:0 10 "a";
  Alcotest.(check (option string)) "hit" (Some "a") (Assoc_table.find t 10)

let test_assoc_lru_eviction_order () =
  (* One set, two ways: the least recently used key is evicted. *)
  let t = Assoc_table.create ~sets:1 ~ways:2 in
  Assoc_table.insert t ~tag:0 1 ();
  Assoc_table.insert t ~tag:0 2 ();
  ignore (Assoc_table.find t 1);
  (* 2 is now LRU *)
  Assoc_table.insert t ~tag:0 3 ();
  checkb "1 kept" true (Assoc_table.probe t 1 <> None);
  checkb "2 evicted" true (Assoc_table.probe t 2 = None);
  checkb "3 present" true (Assoc_table.probe t 3 <> None)

let test_assoc_probe_does_not_refresh () =
  let t = Assoc_table.create ~sets:1 ~ways:2 in
  Assoc_table.insert t ~tag:0 1 ();
  Assoc_table.insert t ~tag:0 2 ();
  ignore (Assoc_table.probe t 1);
  (* probe must NOT refresh: 1 is still LRU *)
  Assoc_table.insert t ~tag:0 3 ();
  checkb "1 evicted" true (Assoc_table.probe t 1 = None)

let test_assoc_set_isolation () =
  (* Keys in different sets never evict each other. *)
  let t = Assoc_table.create ~sets:2 ~ways:1 in
  Assoc_table.insert t ~tag:0 0 ();
  Assoc_table.insert t ~tag:0 1 ();
  checkb "both live" true (Assoc_table.probe t 0 <> None && Assoc_table.probe t 1 <> None)

let test_assoc_touch () =
  let t = Assoc_table.create ~sets:2 ~ways:2 in
  checkb "miss inserts" false (Assoc_table.touch t ~tag:0 5 ());
  checkb "hit" true (Assoc_table.touch t ~tag:0 5 ())

let test_assoc_overwrite () =
  let t = Assoc_table.create ~sets:2 ~ways:2 in
  Assoc_table.insert t ~tag:0 5 "a";
  Assoc_table.insert t ~tag:0 5 "b";
  Alcotest.(check (option string)) "overwritten" (Some "b") (Assoc_table.find t 5);
  checki "single entry" 1 (Assoc_table.valid_count t)

let test_assoc_clear () =
  let t = Assoc_table.create ~sets:2 ~ways:2 in
  Assoc_table.insert t ~tag:0 5 ();
  Assoc_table.clear t;
  checki "empty" 0 (Assoc_table.valid_count t)

let test_assoc_rejects_bad_geometry () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Assoc_table.create: sets must be a power of two") (fun () ->
      ignore (Assoc_table.create ~sets:3 ~ways:1))

(* ---------------- Cache ---------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~size_bytes:4096 ~ways:2 in
  checkb "cold miss" false (Cache.access c 0x1000);
  checkb "warm hit" true (Cache.access c 0x1000);
  checkb "same line" true (Cache.access c 0x103F);
  checkb "next line misses" false (Cache.access c 0x1040)

let test_cache_capacity_eviction () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:1 in
  (* 16 lines direct mapped; address + 1024 maps to the same set. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  checkb "conflict evicted" false (Cache.access c 0)

let test_cache_flush () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 in
  ignore (Cache.access c 0);
  Cache.flush c;
  checkb "cold again" false (Cache.access c 0)

(* ---------------- Tlb ---------------- *)

let test_tlb_page_granularity () =
  let t = Tlb.create ~name:"t" ~entries:8 ~ways:2 in
  ignore (Tlb.access t ~asid:0 0x1000);
  checkb "same page hits" true (Tlb.access t ~asid:0 0x1FFF);
  checkb "next page misses" false (Tlb.access t ~asid:0 0x2000)

let test_tlb_capacity () =
  let t = Tlb.create ~name:"t" ~entries:4 ~ways:4 in
  for i = 0 to 3 do
    ignore (Tlb.access t ~asid:0 (i * 4096 * 4))
  done;
  (* All four entries map to set 0 region...: fully assoc when ways=4, sets=1 *)
  ignore (Tlb.access t ~asid:0 (100 * 4096));
  checkb "evicted oldest" false (Tlb.access t ~asid:0 0)

(* ---------------- Btb / Direction / Ras ---------------- *)

let test_btb_predict_update () =
  let b = Btb.create ~sets:16 ~ways:2 in
  checkb "cold" true (Btb.predict b 0x400 = None);
  Btb.update b 0x400 0x500;
  Alcotest.(check (option int)) "trained" (Some 0x500) (Btb.predict b 0x400)

let test_btb_retarget () =
  let b = Btb.create ~sets:16 ~ways:2 in
  Btb.update b 0x400 0x500;
  Btb.update b 0x400 0x600;
  Alcotest.(check (option int)) "retargeted" (Some 0x600) (Btb.predict b 0x400)

let test_direction_learns_bias () =
  let d = Direction.create ~table_bits:10 ~history_bits:0 in
  for _ = 1 to 10 do
    Direction.update d 0x40 true
  done;
  checkb "learned taken" true (Direction.predict d 0x40)

let test_direction_learns_alternating_with_history () =
  let d = Direction.create ~table_bits:12 ~history_bits:4 in
  (* Strictly alternating pattern is learnable with history. *)
  let taken = ref false in
  for _ = 1 to 200 do
    taken := not !taken;
    Direction.update d 0x40 !taken
  done;
  let correct = ref 0 in
  for _ = 1 to 100 do
    taken := not !taken;
    if Direction.predict d 0x40 = !taken then incr correct;
    Direction.update d 0x40 !taken
  done;
  checkb "alternation learned" true (!correct > 90)

let test_ras_lifo () =
  let r = Ras.create ~depth:4 in
  Ras.push r 1;
  Ras.push r 2;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ras.pop r);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ras.pop r);
  Alcotest.(check (option int)) "empty" None (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~depth:2 in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3;
  (* 1 overwritten *)
  Alcotest.(check (option int)) "3" (Some 3) (Ras.pop r);
  Alcotest.(check (option int)) "2" (Some 2) (Ras.pop r);
  Alcotest.(check (option int)) "1 lost" None (Ras.pop r)

(* ---------------- Bloom ---------------- *)

let test_bloom_membership () =
  let b = Bloom.create ~bits:1024 ~hashes:2 in
  checkb "empty" false (Bloom.mem b ~asid:0 0x1234);
  Bloom.add b ~asid:0 0x1234;
  checkb "added" true (Bloom.mem b ~asid:0 0x1234)

let test_bloom_clear () =
  let b = Bloom.create ~bits:1024 ~hashes:2 in
  Bloom.add b ~asid:0 0x10;
  Bloom.clear b;
  checkb "cleared" false (Bloom.mem b ~asid:0 0x10);
  checki "no bits" 0 (Bloom.bits_set b)

let test_bloom_fp_rate_reasonable () =
  let b = Bloom.create ~bits:4096 ~hashes:2 in
  for i = 1 to 20 do
    Bloom.add b ~asid:0 (i * 8192)
  done;
  let fp = ref 0 in
  for i = 1000 to 2000 do
    if Bloom.mem b ~asid:0 (i * 7919) then incr fp
  done;
  checkb "few false positives" true (!fp < 10)

let test_bloom_clear_bit () =
  (* The fault injector's SRAM-bit-flip primitive: clearing every bit of
     the field is equivalent to a full clear, and clearing an already-zero
     bit is a no-op on the census. *)
  let b = Bloom.create ~bits:64 ~hashes:2 in
  Bloom.add b ~asid:0 0xdead;
  let set = Bloom.bits_set b in
  checkb "something set" true (set > 0);
  Bloom.clear_bit b 0;
  for i = 0 to 63 do
    Bloom.clear_bit b i
  done;
  checki "all bits cleared" 0 (Bloom.bits_set b);
  checkb "membership gone" false (Bloom.mem b ~asid:0 0xdead);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bloom.clear_bit: index out of range") (fun () ->
      Bloom.clear_bit b 64)

let test_bloom_rejects_bad_args () =
  Alcotest.check_raises "bits"
    (Invalid_argument "Bloom.create: bits must be a positive power of two") (fun () ->
      ignore (Bloom.create ~bits:1000 ~hashes:2))

(* ---------------- Abtb ---------------- *)

let test_abtb_insert_lookup () =
  let a = Abtb.create ~entries:4 () in
  Abtb.insert a ~asid:0 0x100 { Abtb.func = 0x200; got_slot = 0x300 };
  (match Abtb.lookup a 0x100 with
  | Some { Abtb.func; got_slot } ->
      checki "func" 0x200 func;
      checki "slot" 0x300 got_slot
  | None -> Alcotest.fail "missing");
  checkb "other misses" true (Abtb.lookup a 0x101 = None)

let test_abtb_lru_capacity () =
  let a = Abtb.create ~entries:2 () in
  Abtb.insert a ~asid:0 1 { Abtb.func = 1; got_slot = 1 };
  Abtb.insert a ~asid:0 2 { Abtb.func = 2; got_slot = 2 };
  ignore (Abtb.lookup a 1);
  Abtb.insert a ~asid:0 3 { Abtb.func = 3; got_slot = 3 };
  checkb "2 evicted" true (Abtb.lookup a 2 = None);
  checkb "1 retained" true (Abtb.lookup a 1 <> None)

let test_abtb_clear () =
  let a = Abtb.create ~entries:4 () in
  Abtb.insert a ~asid:0 1 { Abtb.func = 1; got_slot = 1 };
  Abtb.clear a;
  checki "empty" 0 (Abtb.valid_count a)

let test_abtb_storage_cost () =
  (* Paper §5.3: 12 bytes per entry; 256 entries < 1.5KB claim is loose,
     exactly 3KB at 12B/entry — we report the exact figure. *)
  let a = Abtb.create ~entries:256 () in
  checki "12B/entry" (256 * 12) (Abtb.storage_bytes a)

let test_abtb_clear_set () =
  (* Quarantine eviction granularity: clearing one set removes exactly its
     occupants and nothing else. *)
  let a = Abtb.create ~ways:1 ~entries:4 () in
  Abtb.insert a ~asid:0 0 { Abtb.func = 10; got_slot = 10 };
  Abtb.insert a ~asid:0 1 { Abtb.func = 11; got_slot = 11 };
  let s0 = Abtb.set_index a 0 and s1 = Abtb.set_index a 1 in
  checkb "direct-mapped: distinct sets" true (s0 <> s1);
  checki "four sets" 4 (Abtb.n_sets a);
  Abtb.clear_set a s0;
  checkb "victim gone" true (Abtb.lookup a 0 = None);
  checkb "other set untouched" true (Abtb.lookup a 1 <> None);
  checki "one survivor" 1 (Abtb.valid_count a);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Assoc_table.clear_set: no such set") (fun () ->
      Abtb.clear_set a 4)

(* ---------------- Counters ---------------- *)

let test_counters_diff () =
  let a = Counters.create () in
  a.Counters.instructions <- 100;
  a.Counters.cycles <- 300;
  let snap = Counters.copy a in
  a.Counters.instructions <- 150;
  a.Counters.cycles <- 450;
  let d = Counters.diff ~after:a ~before:snap in
  checki "instr delta" 50 d.Counters.instructions;
  checki "cycle delta" 150 d.Counters.cycles

let test_counters_pki () =
  let c = Counters.create () in
  c.Counters.instructions <- 2000;
  Alcotest.(check (float 1e-9)) "pki" 5.0 (Counters.pki c 10)

let test_counters_reset () =
  let c = Counters.create () in
  c.Counters.branches <- 5;
  Counters.reset c;
  checki "reset" 0 c.Counters.branches

(* ---------------- Engine ---------------- *)

let plain_event = Event.make (* size 4, every operand absent *)

let test_engine_counts_instructions_and_misses () =
  let e = Engine.create Config.small in
  Engine.retire e (plain_event 0x1000);
  Engine.retire e (plain_event 0x1000);
  let c = Engine.counters e in
  checki "two instructions" 2 c.Counters.instructions;
  checki "one icache miss" 1 c.Counters.icache_misses;
  checki "one itlb miss" 1 c.Counters.itlb_misses;
  checkb "cycles include penalties" true (c.Counters.cycles > 2)

let test_engine_data_accesses () =
  let e = Engine.create Config.small in
  Engine.retire e (plain_event ~load:0x8000 0x1000);
  Engine.retire e (plain_event ~store:0x8000 0x1004);
  let c = Engine.counters e in
  checki "one dcache miss (second hits)" 1 c.Counters.dcache_misses;
  checki "one dtlb miss" 1 c.Counters.dtlb_misses

let test_engine_cond_misprediction () =
  let e = Engine.create Config.small in
  (* Initial 2-bit counters are weakly not-taken: a taken branch mispredicts. *)
  Engine.retire e
    (plain_event ~kind:Event.Kind.cond_branch ~target:0x2000 ~taken:true 0x1000);
  checki "mispredicted" 1 (Engine.counters e).Counters.branch_mispredictions

let test_engine_indirect_learns () =
  let e = Engine.create Config.small in
  let ev = plain_event ~kind:Event.Kind.jump_indirect ~target:0x2000 ~aux:0x30 0x1000 in
  Engine.retire e ev;
  let m1 = (Engine.counters e).Counters.branch_mispredictions in
  Engine.retire e ev;
  let m2 = (Engine.counters e).Counters.branch_mispredictions in
  checki "first mispredicts" 1 m1;
  checki "second predicted" 1 m2

let test_engine_return_uses_ras () =
  let e = Engine.create Config.small in
  (* Call pushes pc+size; matching return is predicted. *)
  Engine.retire e
    (plain_event ~kind:Event.Kind.call_direct ~target:0x2000 ~aux:0x2000 0x1000);
  let before = (Engine.counters e).Counters.branch_mispredictions in
  Engine.retire e (plain_event ~kind:Event.Kind.return ~target:0x1004 0x2000);
  checki "return predicted" before (Engine.counters e).Counters.branch_mispredictions

let test_engine_redirected_call_with_stale_btb_mispredicts () =
  let e = Engine.create Config.small in
  (* A redirected (skipped) call whose BTB does not hold the function is a
     genuine misprediction. *)
  Engine.retire e
    (plain_event ~kind:Event.Kind.call_direct ~target:0x3000 ~aux:0x2000 0x1000);
  checki "mispredict" 1 (Engine.counters e).Counters.branch_mispredictions;
  (* Next time the BTB holds the function address: no mispredict. *)
  Engine.retire e
    (plain_event ~kind:Event.Kind.call_direct ~target:0x3000 ~aux:0x2000 0x1000);
  checki "then predicted" 1 (Engine.counters e).Counters.branch_mispredictions

let test_engine_direct_call_miss_is_bubble_not_mispredict () =
  let e = Engine.create Config.small in
  Engine.retire e
    (plain_event ~kind:Event.Kind.call_direct ~target:0x2000 ~aux:0x2000 0x1000);
  let c = Engine.counters e in
  checki "no mispredict" 0 c.Counters.branch_mispredictions;
  checki "btb fill" 1 c.Counters.btb_misses

let test_engine_btb_external_update () =
  let e = Engine.create Config.small in
  Engine.btb_update e 0x1000 0x5000;
  Alcotest.(check (option int)) "visible" (Some 0x5000) (Engine.btb_predict e 0x1000)

let test_engine_context_switch_flushes_tlbs () =
  let e = Engine.create Config.small in
  Engine.retire e (plain_event 0x1000);
  Engine.context_switch e;
  Engine.retire e (plain_event 0x1000);
  checki "itlb misses twice" 2 (Engine.counters e).Counters.itlb_misses

let test_engine_plt_instructions_counted () =
  let e = Engine.create Config.small in
  Engine.retire e (plain_event ~in_plt:true 0x1000);
  checki "tramp instr" 1 (Engine.counters e).Counters.tramp_instructions

let test_engine_cycle_arithmetic_exact () =
  (* One plain instruction on a cold machine: 1 base cycle + ITLB walk +
     L1I miss that also misses L2 (memory latency). *)
  let cfg = Config.small in
  let e = Engine.create cfg in
  Engine.retire e (plain_event 0x1000);
  let expected =
    1 + cfg.Config.penalties.tlb_miss + cfg.Config.penalties.l2_miss
  in
  checki "cold fetch cost" expected (Engine.counters e).Counters.cycles;
  (* Same instruction again: everything hits, exactly one cycle. *)
  Engine.retire e (plain_event 0x1000);
  checki "warm fetch cost" (expected + 1) (Engine.counters e).Counters.cycles

let test_engine_l2_absorbs_l1_misses () =
  let cfg = Config.small in
  let e = Engine.create cfg in
  (* Three addresses mapping to the same 2-way L1 set force a conflict
     eviction; the larger L2 keeps all three, so re-access costs only the
     L1-miss (L2-hit) penalty. *)
  let a = 0x10000 in
  let b = a + (4 * 1024) and c = a + (8 * 1024) in
  Engine.retire e (plain_event a);
  Engine.retire e (plain_event b);
  Engine.retire e (plain_event c);
  let before = (Engine.counters e).Counters.cycles in
  Engine.retire e (plain_event a);
  let cost = (Engine.counters e).Counters.cycles - before in
  checki "L2 hit after L1 conflict" (1 + cfg.Config.penalties.l1_miss) cost

(* ---------------- reference models for the O(1) flash clear ---------- *)

(* A naive eager-clear copy of the pre-epoch Assoc_table — same geometry,
   same true-LRU replacement, but [clear]/[clear ~tag] physically walk the
   slots.  The qcheck sequences below drive it in lock-step with the
   generation-stamped implementation and assert observational identity,
   including which way the victim scan picks. *)
module Ref_table = struct
  type t = {
    sets : int;
    ways : int;
    keys : int array;
    tags : int array;
    values : int array;
    stamps : int array;
    mutable tick : int;
  }

  let create ~sets ~ways =
    let n = sets * ways in
    {
      sets;
      ways;
      keys = Array.make n (-1);
      tags = Array.make n 0;
      values = Array.make n 0;
      stamps = Array.make n 0;
      tick = 0;
    }

  let set_of t key = key land (t.sets - 1)

  let next_tick t =
    t.tick <- t.tick + 1;
    t.tick

  let find_slot t key tag =
    let base = set_of t key * t.ways in
    let rec go w =
      if w >= t.ways then -1
      else if t.keys.(base + w) = key && t.tags.(base + w) = tag then base + w
      else go (w + 1)
    in
    go 0

  let find t ~tag key =
    let i = find_slot t key tag in
    if i < 0 then None
    else begin
      t.stamps.(i) <- next_tick t;
      Some t.values.(i)
    end

  let probe t ~tag key =
    let i = find_slot t key tag in
    if i < 0 then None else Some t.values.(i)

  let victim_slot t key =
    let base = set_of t key * t.ways in
    let rec free w =
      if w >= t.ways then -1
      else if t.keys.(base + w) = -1 then base + w
      else free (w + 1)
    in
    let i = free 0 in
    if i >= 0 then i
    else begin
      let best = ref base in
      for w = 1 to t.ways - 1 do
        if t.stamps.(base + w) < t.stamps.(!best) then best := base + w
      done;
      !best
    end

  let insert t ~tag key v =
    let i = find_slot t key tag in
    let i = if i >= 0 then i else victim_slot t key in
    t.keys.(i) <- key;
    t.tags.(i) <- tag;
    t.values.(i) <- v;
    t.stamps.(i) <- next_tick t

  let touch t ~tag key v =
    let i = find_slot t key tag in
    if i >= 0 then begin
      t.stamps.(i) <- next_tick t;
      true
    end
    else begin
      insert t ~tag key v;
      false
    end

  let invalidate t i =
    t.keys.(i) <- -1;
    t.tags.(i) <- 0;
    t.values.(i) <- 0;
    t.stamps.(i) <- 0

  let clear ?tag t =
    match tag with
    | None ->
        for i = 0 to Array.length t.keys - 1 do
          invalidate t i
        done;
        t.tick <- 0
    | Some tag ->
        Array.iteri
          (fun i k -> if k >= 0 && t.tags.(i) = tag then invalidate t i)
          t.keys

  let clear_set t s =
    for w = 0 to t.ways - 1 do
      invalidate t ((s * t.ways) + w)
    done

  let valid_count ?tag t =
    let n = ref 0 in
    Array.iteri
      (fun i k ->
        if k >= 0 && match tag with None -> true | Some tag -> t.tags.(i) = tag
        then incr n)
      t.keys;
    !n
end

(* Bool-array Bloom reference with the packed filter's mixer copied
   verbatim — both must probe identical bit positions, so any divergence
   is in the bit storage (the word-packed, generation-stamped part). *)
module Ref_bloom = struct
  type t = { bits : bool array; hashes : int; mutable set_bits : int }

  let create ~bits ~hashes =
    { bits = Array.make bits false; hashes; set_bits = 0 }

  let mix x =
    let x = x lxor (x lsr 30) in
    let x = x * 0x4be98134a5976fd3 in
    let x = x lxor (x lsr 29) in
    let x = x * 0x3bbf2a98b9367f05 in
    (x lxor (x lsr 32)) land max_int

  let mix2 a b = mix (a + (b * 0x1e3779b97f4a7c15))

  let bit_pos t ~asid a k =
    let v = if asid = 0 then a else mix2 a asid in
    mix2 v (k + 1) land (Array.length t.bits - 1)

  let add t ~asid a =
    for k = 0 to t.hashes - 1 do
      let i = bit_pos t ~asid a k in
      if not t.bits.(i) then begin
        t.bits.(i) <- true;
        t.set_bits <- t.set_bits + 1
      end
    done

  let mem t ~asid a =
    let rec go k = k >= t.hashes || (t.bits.(bit_pos t ~asid a k) && go (k + 1)) in
    go 0

  let clear t =
    Array.fill t.bits 0 (Array.length t.bits) false;
    t.set_bits <- 0

  let clear_bit t i =
    if t.bits.(i) then begin
      t.bits.(i) <- false;
      t.set_bits <- t.set_bits - 1
    end

  let bits_set t = t.set_bits
end

type table_op =
  | Insert of int * int * int
  | Find of int * int
  | Probe of int * int
  | Touch of int * int * int
  | Clear
  | Clear_tag of int
  | Clear_set of int

let table_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun k tag v -> Insert (k, tag, v)) (int_range 0 31) (int_range 0 3) (int_range 0 1000));
        (4, map2 (fun k tag -> Find (k, tag)) (int_range 0 31) (int_range 0 3));
        (2, map2 (fun k tag -> Probe (k, tag)) (int_range 0 31) (int_range 0 3));
        (4, map3 (fun k tag v -> Touch (k, tag, v)) (int_range 0 31) (int_range 0 3) (int_range 0 1000));
        (1, return Clear);
        (2, map (fun tag -> Clear_tag tag) (int_range 0 3));
        (1, map (fun s -> Clear_set s) (int_range 0 3));
      ])

let table_op_print = function
  | Insert (k, tag, v) -> Printf.sprintf "insert k=%d tag=%d v=%d" k tag v
  | Find (k, tag) -> Printf.sprintf "find k=%d tag=%d" k tag
  | Probe (k, tag) -> Printf.sprintf "probe k=%d tag=%d" k tag
  | Touch (k, tag, v) -> Printf.sprintf "touch k=%d tag=%d v=%d" k tag v
  | Clear -> "clear"
  | Clear_tag tag -> Printf.sprintf "clear ~tag:%d" tag
  | Clear_set s -> Printf.sprintf "clear_set %d" s

type bloom_op = Badd of int * int | Bmem of int * int | Bclear | Bclear_bit of int

let bloom_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun asid a -> Badd (asid, a)) (int_range 0 3) (int_range 0 100_000));
        (5, map2 (fun asid a -> Bmem (asid, a)) (int_range 0 3) (int_range 0 100_000));
        (1, return Bclear);
        (2, map (fun i -> Bclear_bit i) (int_range 0 255));
      ])

let bloom_op_print = function
  | Badd (asid, a) -> Printf.sprintf "add asid=%d a=%d" asid a
  | Bmem (asid, a) -> Printf.sprintf "mem asid=%d a=%d" asid a
  | Bclear -> "clear"
  | Bclear_bit i -> Printf.sprintf "clear_bit %d" i

(* Deterministic check that the lazy reclamation hands out flash-cleared
   ways in way order, ahead of any LRU decision — the property that makes
   victim choice identical to an eager clear. *)
let test_assoc_clear_tag_way_order () =
  let t = Assoc_table.create ~sets:1 ~ways:4 in
  Assoc_table.insert t ~tag:0 0 "a";
  Assoc_table.insert t ~tag:1 4 "b";
  Assoc_table.insert t ~tag:0 8 "c";
  Assoc_table.insert t ~tag:1 12 "d";
  Assoc_table.clear ~tag:1 t;
  checki "two live after tag clear" 2 (Assoc_table.valid_count t);
  (* e must reclaim b's way (first stale in way order), f then d's. *)
  Assoc_table.insert t ~tag:0 16 "e";
  Assoc_table.insert t ~tag:0 20 "f";
  checkb "a kept" true (Assoc_table.probe t 0 <> None);
  checkb "c kept" true (Assoc_table.probe t 8 <> None);
  checkb "e present" true (Assoc_table.probe t 16 <> None);
  checkb "f present" true (Assoc_table.probe t 20 <> None);
  checkb "b gone" true (Assoc_table.probe t ~tag:1 4 = None);
  checkb "d gone" true (Assoc_table.probe t ~tag:1 12 = None)

let test_assoc_flash_clear_behaves_like_fresh () =
  let t = Assoc_table.create ~sets:2 ~ways:2 in
  for k = 0 to 7 do
    Assoc_table.insert t ~tag:0 k k
  done;
  Assoc_table.clear t;
  checki "empty after flash clear" 0 (Assoc_table.valid_count t);
  (* LRU behaviour starts over exactly as in a fresh table. *)
  Assoc_table.insert t ~tag:0 0 10;
  Assoc_table.insert t ~tag:0 2 11;
  ignore (Assoc_table.find t 0);
  Assoc_table.insert t ~tag:0 4 12;
  checkb "0 kept" true (Assoc_table.probe t 0 <> None);
  checkb "2 evicted" true (Assoc_table.probe t 2 = None);
  checkb "4 present" true (Assoc_table.probe t 4 <> None)

let equivalence_qcheck_tests =
  [
    QCheck.Test.make ~name:"epoch table equals eager reference" ~count:500
      (QCheck.make
         ~print:(fun ops -> String.concat "; " (List.map table_op_print ops))
         QCheck.Gen.(list_size (int_range 1 200) table_op_gen))
      (fun ops ->
        let t = Assoc_table.create ~sets:4 ~ways:2 in
        let r = Ref_table.create ~sets:4 ~ways:2 in
        List.for_all
          (fun op ->
            match op with
            | Insert (k, tag, v) ->
                Assoc_table.insert t ~tag k v;
                Ref_table.insert r ~tag k v;
                true
            | Find (k, tag) -> Assoc_table.find t ~tag k = Ref_table.find r ~tag k
            | Probe (k, tag) ->
                Assoc_table.probe t ~tag k = Ref_table.probe r ~tag k
            | Touch (k, tag, v) ->
                Assoc_table.touch t ~tag k v = Ref_table.touch r ~tag k v
            | Clear ->
                Assoc_table.clear t;
                Ref_table.clear r;
                true
            | Clear_tag tag ->
                Assoc_table.clear ~tag t;
                Ref_table.clear ~tag r;
                true
            | Clear_set s ->
                Assoc_table.clear_set t s;
                Ref_table.clear_set r s;
                true)
          ops
        && Assoc_table.valid_count t = Ref_table.valid_count r
        && List.for_all
             (fun tag ->
               Assoc_table.valid_count ~tag t = Ref_table.valid_count ~tag r)
             [ 0; 1; 2; 3 ]);
    QCheck.Test.make ~name:"packed bloom equals bool-array reference" ~count:500
      (QCheck.make
         ~print:(fun ops -> String.concat "; " (List.map bloom_op_print ops))
         QCheck.Gen.(list_size (int_range 1 200) bloom_op_gen))
      (fun ops ->
        let b = Bloom.create ~bits:256 ~hashes:3 in
        let r = Ref_bloom.create ~bits:256 ~hashes:3 in
        List.for_all
          (fun op ->
            (match op with
            | Badd (asid, a) ->
                Bloom.add b ~asid a;
                Ref_bloom.add r ~asid a;
                true
            | Bmem (asid, a) -> Bloom.mem b ~asid a = Ref_bloom.mem r ~asid a
            | Bclear ->
                Bloom.clear b;
                Ref_bloom.clear r;
                true
            | Bclear_bit i ->
                Bloom.clear_bit b i;
                Ref_bloom.clear_bit r i;
                true)
            && Bloom.bits_set b = Ref_bloom.bits_set r)
          ops);
  ]

(* ---------------- property tests ---------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"bloom has no false negatives" ~count:200
      QCheck.(list_of_size (QCheck.Gen.int_range 1 64) (int_range 0 1_000_000))
      (fun addrs ->
        let b = Bloom.create ~bits:4096 ~hashes:3 in
        List.iter (Bloom.add b ~asid:0) addrs;
        List.for_all (Bloom.mem b ~asid:0) addrs);
    QCheck.Test.make ~name:"assoc table holds at most capacity" ~count:200
      QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_range 0 1000))
      (fun keys ->
        let t = Assoc_table.create ~sets:4 ~ways:2 in
        List.iter (fun k -> Assoc_table.insert t ~tag:0 k ()) keys;
        Assoc_table.valid_count t <= Assoc_table.capacity t);
    QCheck.Test.make ~name:"most recent key always present" ~count:200
      QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_range 0 1000))
      (fun keys ->
        let t = Assoc_table.create ~sets:2 ~ways:2 in
        List.iter (fun k -> Assoc_table.insert t ~tag:0 k ()) keys;
        match List.rev keys with
        | last :: _ -> Assoc_table.probe t last <> None
        | [] -> true);
    QCheck.Test.make ~name:"cache access idempotent on hit" ~count:200
      (QCheck.int_range 0 100_000)
      (fun addr ->
        let c = Cache.create ~name:"t" ~size_bytes:4096 ~ways:4 in
        ignore (Cache.access c addr);
        Cache.access c addr && Cache.access c addr);
    QCheck.Test.make ~name:"ras pop returns last push" ~count:200
      QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_range 0 1_000_000))
      (fun pushes ->
        let r = Ras.create ~depth:16 in
        List.iter (Ras.push r) pushes;
        match List.rev pushes with
        | last :: _ -> Ras.pop r = Some last
        | [] -> true);
  ]

let () =
  Alcotest.run "dlink_uarch"
    [
      ( "assoc_table",
        [
          Alcotest.test_case "hit after insert" `Quick test_assoc_hit_after_insert;
          Alcotest.test_case "LRU eviction" `Quick test_assoc_lru_eviction_order;
          Alcotest.test_case "probe no refresh" `Quick test_assoc_probe_does_not_refresh;
          Alcotest.test_case "set isolation" `Quick test_assoc_set_isolation;
          Alcotest.test_case "touch" `Quick test_assoc_touch;
          Alcotest.test_case "overwrite" `Quick test_assoc_overwrite;
          Alcotest.test_case "clear" `Quick test_assoc_clear;
          Alcotest.test_case "clear ~tag way order" `Quick
            test_assoc_clear_tag_way_order;
          Alcotest.test_case "flash clear like fresh" `Quick
            test_assoc_flash_clear_behaves_like_fresh;
          Alcotest.test_case "bad geometry" `Quick test_assoc_rejects_bad_geometry;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "conflict eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "flush" `Quick test_cache_flush;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "page granularity" `Quick test_tlb_page_granularity;
          Alcotest.test_case "capacity" `Quick test_tlb_capacity;
        ] );
      ( "predictors",
        [
          Alcotest.test_case "btb predict/update" `Quick test_btb_predict_update;
          Alcotest.test_case "btb retarget" `Quick test_btb_retarget;
          Alcotest.test_case "direction bias" `Quick test_direction_learns_bias;
          Alcotest.test_case "direction alternation" `Quick
            test_direction_learns_alternating_with_history;
          Alcotest.test_case "ras lifo" `Quick test_ras_lifo;
          Alcotest.test_case "ras overflow" `Quick test_ras_overflow_wraps;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "membership" `Quick test_bloom_membership;
          Alcotest.test_case "clear" `Quick test_bloom_clear;
          Alcotest.test_case "fp rate" `Quick test_bloom_fp_rate_reasonable;
          Alcotest.test_case "clear bit" `Quick test_bloom_clear_bit;
          Alcotest.test_case "bad args" `Quick test_bloom_rejects_bad_args;
        ] );
      ( "abtb",
        [
          Alcotest.test_case "insert/lookup" `Quick test_abtb_insert_lookup;
          Alcotest.test_case "LRU capacity" `Quick test_abtb_lru_capacity;
          Alcotest.test_case "clear" `Quick test_abtb_clear;
          Alcotest.test_case "clear set" `Quick test_abtb_clear_set;
          Alcotest.test_case "storage cost" `Quick test_abtb_storage_cost;
        ] );
      ( "counters",
        [
          Alcotest.test_case "diff" `Quick test_counters_diff;
          Alcotest.test_case "pki" `Quick test_counters_pki;
          Alcotest.test_case "reset" `Quick test_counters_reset;
        ] );
      ( "engine",
        [
          Alcotest.test_case "instr and fetch misses" `Quick
            test_engine_counts_instructions_and_misses;
          Alcotest.test_case "data accesses" `Quick test_engine_data_accesses;
          Alcotest.test_case "cond misprediction" `Quick test_engine_cond_misprediction;
          Alcotest.test_case "indirect learns" `Quick test_engine_indirect_learns;
          Alcotest.test_case "return uses RAS" `Quick test_engine_return_uses_ras;
          Alcotest.test_case "stale-BTB skip mispredicts" `Quick
            test_engine_redirected_call_with_stale_btb_mispredicts;
          Alcotest.test_case "direct miss is bubble" `Quick
            test_engine_direct_call_miss_is_bubble_not_mispredict;
          Alcotest.test_case "external BTB update" `Quick test_engine_btb_external_update;
          Alcotest.test_case "context switch flushes TLBs" `Quick
            test_engine_context_switch_flushes_tlbs;
          Alcotest.test_case "plt instructions counted" `Quick
            test_engine_plt_instructions_counted;
          Alcotest.test_case "cycle arithmetic exact" `Quick
            test_engine_cycle_arithmetic_exact;
          Alcotest.test_case "L2 absorbs L1 misses" `Quick
            test_engine_l2_absorbs_l1_misses;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "flash-clear equivalence",
        List.map QCheck_alcotest.to_alcotest equivalence_qcheck_tests );
    ]
