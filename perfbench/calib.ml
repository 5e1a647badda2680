(* Host-speed reference: a fixed kernel, independent of the simulator's
   code, that run.py times right after each of the workload's rounds.  The
   host is a shared virtual machine whose speed drifts by tens of percent
   over minutes; the ratio of a round's time to the reference's time
   cancels that drift, while a change to the simulator still moves it in
   full.

   The kernel mimics the simulator's replay profile: a dispatch loop over
   pseudo-random opcodes (hard-to-predict branches) with probes into a
   2 MB tag table (cache misses) and a 32 KB hashed table, and
   allocates nothing, as the replay kernel does not.  It runs on one
   domain for every workload: on a two-domain workload a two-domain
   reference over-reacts to moments when the host takes one core away
   (it slows twice, the workload less, because of its sequential part),
   and a one-domain reference tracked serve_sweep's rounds better.  It
   must never change: a change rescales every host-time metric. *)

let code_len = 4096
let table_bits = 18
let slot_bits = 12

let kernel iters =
  let code = Array.init code_len (fun i -> (i * 2654435761) lsr 7 land 7) in
  let tags = Array.make (1 lsl table_bits) 0 in
  let slots = Array.make (1 lsl slot_bits) 0 in
  let mask = (1 lsl table_bits) - 1 and smask = (1 lsl slot_bits) - 1 in
  let acc = ref 0 and pc = ref 0 and x = ref 1 and misses = ref 0 in
  for _ = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    (match code.(!pc) with
    | 0 -> acc := !acc + !x
    | 1 ->
        let i = !x land mask in
        if tags.(i) <> !acc land 0xff then (
          tags.(i) <- !acc land 0xff;
          incr misses)
    | 2 -> slots.((!x * 40503) lsr 9 land smask) <- !acc
    | 3 -> acc := !acc + slots.((!x * 40503) lsr 9 land smask)
    | 4 -> acc := !acc + tags.((!acc + !pc) land mask)
    | 5 -> if !x land 1 = 0 then acc := !acc lxor !x else acc := !acc - 1
    | 6 -> pc := !x land (code_len - 1)
    | _ -> acc := (!acc * 3) land 0xffffffff);
    pc := (!pc + 1) land (code_len - 1)
  done;
  !acc + !misses

(* About 0.2 s on a 2-vCPU KVM guest of a Xeon host. *)
let iters = 50_000_000

(* Wall nanoseconds of one run of the kernel. *)
let run () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (kernel iters));
  Span.now_ns () - t0
