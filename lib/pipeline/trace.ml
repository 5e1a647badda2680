open Dlink_isa
open Dlink_mach

(* Packed retire-stream format.

   One 16-bit little-endian info word per event:
     bits 0-2   branch kind (Event.Kind; 0 = not a branch)
     bit  3     in_plt
     bit  4     plt_call   (profile-eligible library call, precomputed)
     bit  5     got_store  (the store address lies in a GOT, precomputed)
     bit  6     taken      (conditional branches)
     bit  7     has_load
     bit  8     has_load2
     bit  9     has_store
     bit  10    has_aux    (aux operand present in the stream)
     bit  11    has_pc     (pc operand present in the stream)
     bits 12-15 instruction size in bytes
   Operands live in a separate int stream, per event in this order:
     [pc?] [load?] [load2?] [store?] [target if kind<>0] [aux?]
   The pc is stored only when it differs from the previous event's derived
   next-pc (fallthrough for non-branches and untaken conditionals, target
   otherwise), i.e. almost never — the stream is self-describing and a
   request's first event always carries its pc.  The aux operand (the
   architectural target of a direct call, the GOT slot of an indirect
   branch) is stored for indirect branches always and for direct calls only
   when it differs from the target; a direct call without the bit decodes
   aux := target. *)

type t = {
  info : Bytes.t;
  ops : int array;
  n_events : int;
  n_ops : int;
  req_start : int array; (* event index per request; length n_requests + 1 *)
  req_op_start : int array; (* operand index per request; same length *)
  req_rtype : int array; (* length n_requests *)
  warmup : int; (* the first [warmup] requests precede the window *)
}

let n_events t = t.n_events
let n_requests t = Array.length t.req_rtype
let warmup t = t.warmup
let measured_requests t = n_requests t - t.warmup
let request_rtype t r = t.req_rtype.(r)
let request_events t r = t.req_start.(r + 1) - t.req_start.(r)

let storage_bytes t =
  (2 * t.n_events) + (8 * t.n_ops) + (8 * 2 * (n_requests t + 1))

(* info-word bit masks *)
let m_in_plt = 8
let m_plt_call = 16
let m_got_store = 32
let m_taken = 64
let m_load = 128
let m_load2 = 256
let m_store = 512
let m_aux = 1024
let m_pc = 2048

(* A pc no real event can have, forcing the next added event to carry its
   pc explicitly. *)
let no_pc = min_int

let next_pc_of ~kind ~pc ~size ~target ~taken =
  if kind = Event.Kind.none then pc + size
  else if kind = Event.Kind.cond_branch then if taken then target else pc + size
  else target

module Writer = struct
  type trace = t

  type t = {
    mutable info : Bytes.t;
    mutable ops : int array;
    mutable n_events : int;
    mutable n_ops : int;
    mutable starts_rev : (int * int * int) list; (* (event, op, rtype) *)
    mutable n_requests : int;
    mutable expect_pc : int;
  }

  let create () =
    {
      info = Bytes.create 8192;
      ops = Array.make 4096 0;
      n_events = 0;
      n_ops = 0;
      starts_rev = [];
      n_requests = 0;
      expect_pc = no_pc;
    }

  let ensure_event w =
    if 2 * (w.n_events + 1) > Bytes.length w.info then begin
      let bigger = Bytes.create (2 * Bytes.length w.info) in
      Bytes.blit w.info 0 bigger 0 (2 * w.n_events);
      w.info <- bigger
    end

  let ensure_ops w need =
    if w.n_ops + need > Array.length w.ops then begin
      let bigger =
        Array.make (max (2 * Array.length w.ops) (w.n_ops + need)) 0
      in
      Array.blit w.ops 0 bigger 0 w.n_ops;
      w.ops <- bigger
    end

  let push_op w v =
    w.ops.(w.n_ops) <- v;
    w.n_ops <- w.n_ops + 1

  let start_request w ~rtype =
    w.starts_rev <- (w.n_events, w.n_ops, rtype) :: w.starts_rev;
    w.n_requests <- w.n_requests + 1;
    (* A request entry is always a control-flow discontinuity; pin it. *)
    w.expect_pc <- no_pc

  let add w (ev : Event.t) =
    if w.n_requests = 0 then
      invalid_arg "Trace.Writer.add: no request started";
    if ev.size < 0 || ev.size > 15 then
      invalid_arg "Trace.Writer.add: size out of range";
    let kind = ev.kind and target = ev.target and aux = ev.aux in
    let has_pc = ev.pc <> w.expect_pc in
    let has_aux =
      kind = Event.Kind.call_indirect
      || kind = Event.Kind.jump_indirect
      || (kind = Event.Kind.call_direct && aux <> target)
    in
    let info =
      kind
      lor (if ev.in_plt then m_in_plt else 0)
      lor (if ev.plt_call then m_plt_call else 0)
      lor (if ev.got_store then m_got_store else 0)
      lor (if ev.taken then m_taken else 0)
      lor (if ev.load <> Addr.none then m_load else 0)
      lor (if ev.load2 <> Addr.none then m_load2 else 0)
      lor (if ev.store <> Addr.none then m_store else 0)
      lor (if has_aux then m_aux else 0)
      lor (if has_pc then m_pc else 0)
      lor (ev.size lsl 12)
    in
    ensure_event w;
    Bytes.set_uint16_le w.info (2 * w.n_events) info;
    w.n_events <- w.n_events + 1;
    ensure_ops w 6;
    if has_pc then push_op w ev.pc;
    if ev.load <> Addr.none then push_op w ev.load;
    if ev.load2 <> Addr.none then push_op w ev.load2;
    if ev.store <> Addr.none then push_op w ev.store;
    if kind <> Event.Kind.none then push_op w target;
    if has_aux then push_op w aux;
    w.expect_pc <-
      next_pc_of ~kind ~pc:ev.pc ~size:ev.size ~target ~taken:ev.taken

  let finish w ~warmup : trace =
    if warmup < 0 || warmup > w.n_requests then
      invalid_arg "Trace.Writer.finish: warmup out of range";
    let starts = Array.of_list (List.rev w.starts_rev) in
    let n_req = Array.length starts in
    let req_start = Array.make (n_req + 1) w.n_events in
    let req_op_start = Array.make (n_req + 1) w.n_ops in
    let req_rtype = Array.make n_req 0 in
    Array.iteri
      (fun r (e, o, rt) ->
        req_start.(r) <- e;
        req_op_start.(r) <- o;
        req_rtype.(r) <- rt)
      starts;
    {
      info = Bytes.sub w.info 0 (2 * w.n_events);
      ops = Array.sub w.ops 0 w.n_ops;
      n_events = w.n_events;
      n_ops = w.n_ops;
      req_start;
      req_op_start;
      req_rtype;
      warmup;
    }
end

module Cursor = struct
  type trace = t

  type t = {
    trace : trace;
    mutable i : int; (* next event to decode *)
    mutable op : int;
    mutable next_pc : int;
    ev : Event.t; (* the last decoded event, overwritten by [advance] *)
  }

  let create trace =
    { trace; i = 0; op = 0; next_pc = no_pc; ev = Event.make 0 }

  let seek_request c r =
    c.i <- c.trace.req_start.(r);
    c.op <- c.trace.req_op_start.(r);
    c.next_pc <- no_pc

  let read_op c =
    let v = c.trace.ops.(c.op) in
    c.op <- c.op + 1;
    v

  let advance c =
    let info = Bytes.get_uint16_le c.trace.info (2 * c.i) in
    let kind = info land 7 and ev = c.ev in
    ev.kind <- kind;
    ev.in_plt <- info land m_in_plt <> 0;
    ev.plt_call <- info land m_plt_call <> 0;
    ev.got_store <- info land m_got_store <> 0;
    ev.taken <- info land m_taken <> 0;
    ev.size <- info lsr 12;
    ev.pc <- (if info land m_pc <> 0 then read_op c else c.next_pc);
    ev.load <- (if info land m_load <> 0 then read_op c else Addr.none);
    ev.load2 <- (if info land m_load2 <> 0 then read_op c else Addr.none);
    ev.store <- (if info land m_store <> 0 then read_op c else Addr.none);
    ev.target <- (if kind <> Event.Kind.none then read_op c else Addr.none);
    ev.aux <-
      (if info land m_aux <> 0 then read_op c
       else if kind = Event.Kind.call_direct then ev.target
       else Addr.none);
    c.next_pc <-
      next_pc_of ~kind ~pc:ev.pc ~size:ev.size ~target:ev.target
        ~taken:ev.taken;
    c.i <- c.i + 1

  let peek_in_plt c =
    Bytes.get_uint16_le c.trace.info (2 * c.i) land m_in_plt <> 0
end

(* Reference decoder for tests and debugging: the whole stream back as
   copied events, in retire order. *)
let to_events t =
  let c = Cursor.create t in
  let rec go acc =
    if c.Cursor.i >= t.n_events then List.rev acc
    else begin
      Cursor.advance c;
      go (Event.copy c.Cursor.ev :: acc)
    end
  in
  go []
