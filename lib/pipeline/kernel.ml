open Dlink_isa
open Dlink_mach
open Dlink_uarch

(* The one retire pipeline.  Every execution path in the repo — generate
   mode (Sim/Experiment), packed-trace replay, the multi-process scheduler,
   its replay mirror, and the fault oracle's device under test — is a thin
   driver over this kernel.  The kernel owns the engine, the optional skip
   controller, and the instrumentation points (profile, GOT-store sink,
   event tap); drivers choose an event source (interpreter hooks or a
   packed-trace cursor), each filling one reused [Event.t], and a topology
   (one kernel, or one per core behind [Multi]).

   The retire path is allocation-free: every instrumentation point is a
   pre-installed field consulted with a pointer compare, never an optional
   argument built per call. *)

type t = {
  ucfg : Config.t;
  engine : Engine.t;
  counters : Counters.t;
  skip : Skip.t option;
  (* GOT reads resolve through whichever process the driver currently has
     running; late-bound because processes are built after the kernel. *)
  read_got : (Addr.t -> int) ref;
  mutable profile : Profile.t option;
  (* Consulted on every retired GOT store; the multi-core topology points
     this at the coherence bus under the shared-guard policy. *)
  mutable got_sink : (Addr.t -> unit) option;
  (* Event tap, interpreter sources only: the fault oracle's projected
     control-flow collector hangs here. *)
  mutable tap : (Event.t -> unit) option;
  (* Request-boundary tap: every driver (generate, replay, multi-process)
     announces the start of each request here with its request-type id.
     A tap, not a retire-path branch — the packed retire loop never
     consults it. *)
  mutable boundary_tap : (rtype:int -> unit) option;
  (* The record [retire_store] fills for the dynamic loader's stores. *)
  store_ev : Event.t;
}

let no_read_got (_ : Addr.t) = 0

let create ?(ucfg = Config.xeon_e5450) ?skip_cfg ~with_skip () =
  let engine = Engine.create ucfg in
  let counters = Engine.counters engine in
  let on_stale_prediction () =
    counters.Counters.branch_mispredictions <-
      counters.Counters.branch_mispredictions + 1;
    counters.Counters.cycles <-
      counters.Counters.cycles + ucfg.Config.penalties.mispredict
  in
  let read_got = ref no_read_got in
  let skip =
    if with_skip then
      Some
        (Skip.create ?config:skip_cfg ~counters
           ~btb_update:(Engine.btb_update engine)
           ~btb_predict:(Engine.btb_predict_raw engine)
           ~on_stale_prediction
           ~read_got:(fun slot -> !read_got slot)
           ())
    else None
  in
  { ucfg; engine; counters; skip; read_got; profile = None; got_sink = None;
    tap = None; boundary_tap = None; store_ev = Event.make 0 }

let ucfg t = t.ucfg
let engine t = t.engine
let counters t = t.counters
let skip t = t.skip
let profile t = t.profile
let set_read_got t f = t.read_got := f
let set_profile t p = t.profile <- p
let set_got_sink t f = t.got_sink <- f
let set_tap t f = t.tap <- f
let set_boundary_tap t f = t.boundary_tap <- f

let note_boundary t ~rtype =
  match t.boundary_tap with Some f -> f ~rtype | None -> ()

let context_switch ?(retain_asid = false) t =
  Engine.context_switch ~retain_asid t.engine;
  if not retain_asid then Option.iter Skip.flush t.skip

let set_asid t asid =
  Engine.set_asid t.engine asid;
  Option.iter (fun s -> Skip.set_asid s asid) t.skip

(* ------------------------------------------------------------------ *)
(* The retire pipeline: opportunity counters, engine accounting, skip
   controller, cross-core publication, profiling — in that order, on every
   path.  [plt_call] and [got_store] are classified by the event source
   (the interpreter against its loader; the packed trace carries them as
   info-word bits). *)

let retire t (ev : Event.t) =
  let kind = ev.kind in
  if ev.plt_call && kind = Event.Kind.call_direct then
    t.counters.Counters.tramp_calls <- t.counters.Counters.tramp_calls + 1;
  if kind = Event.Kind.jump_resolver then
    t.counters.Counters.resolver_runs <- t.counters.Counters.resolver_runs + 1;
  if ev.got_store then
    t.counters.Counters.got_stores <- t.counters.Counters.got_stores + 1;
  Engine.retire t.engine ev;
  (match t.skip with Some s -> Skip.on_retire s ev | None -> ());
  (match t.got_sink with Some f when ev.got_store -> f ev.store | _ -> ());
  match t.profile with
  | Some p when ev.plt_call ->
      Profile.note p ~site:ev.pc
        (if kind = Event.Kind.call_direct then ev.aux else ev.target)
  | _ -> ()

let retire_store t ~pc ~got_store addr =
  let ev = t.store_ev in
  ev.pc <- pc;
  ev.got_store <- got_store;
  ev.store <- addr;
  retire t ev

let fetch_call t ~pc ~arch_target =
  match t.skip with
  | Some s -> Skip.on_fetch_call s ~pc ~arch_target
  | None -> arch_target

(* Interpreter event source: hooks that feed a [Process.t]'s fetch and
   retire streams through the kernel, then the tap. *)
let process_hooks t =
  let on_retire ev =
    retire t ev;
    match t.tap with Some f -> f ev | None -> ()
  in
  let on_fetch_call ~pc ~arch_target = fetch_call t ~pc ~arch_target in
  { Process.on_fetch_call; on_retire }

(* ------------------------------------------------------------------ *)
(* Packed-trace event source: the cursor decodes into its own [ev]. *)

(* Replay events until [stop] (an event index, normally the next request
   boundary), drained in fixed-size blocks with the skip-controller
   dispatch hoisted out of the per-event path: the [t.skip] option is
   matched once per [replay_events] call, and each block runs a
   monomorphic inner loop whose bounds stay in registers.  Both loops are
   top-level functions taking only immediates, preserving the
   zero-allocation guarantee. *)
let block_events = 256

(* Skipless retire: a straight drain with no per-event dispatch at all. *)
let replay_block_plain t (c : Trace.Cursor.t) ~stop =
  while c.Trace.Cursor.i < stop do
    Trace.Cursor.advance c;
    retire t c.Trace.Cursor.ev
  done

(* Enhanced retire: the skip controller is consulted on every direct
   call, exactly as the interpreter's fetch hook does; a redirect retires
   the call at the function address ([target] overwritten, [aux] keeping
   the architectural target) and drops the trampoline's in_plt
   continuation without retiring it.  The drop loop runs against the true
   [stop], not the block boundary — a skipped trampoline body may
   straddle two blocks. *)
let replay_block_skip t s (c : Trace.Cursor.t) ~block_stop ~stop =
  let ev = c.Trace.Cursor.ev in
  while c.Trace.Cursor.i < block_stop do
    Trace.Cursor.advance c;
    if ev.kind = Event.Kind.call_direct then begin
      let actual = Skip.on_fetch_call s ~pc:ev.pc ~arch_target:ev.aux in
      if actual <> ev.aux then begin
        ev.target <- actual;
        retire t ev;
        while c.Trace.Cursor.i < stop && Trace.Cursor.peek_in_plt c do
          Trace.Cursor.advance c
        done
      end
      else retire t ev
    end
    else retire t ev
  done

let replay_events t (c : Trace.Cursor.t) ~stop =
  match t.skip with
  | None ->
      while c.Trace.Cursor.i < stop do
        let b = c.Trace.Cursor.i + block_events in
        replay_block_plain t c ~stop:(if b < stop then b else stop)
      done
  | Some s ->
      while c.Trace.Cursor.i < stop do
        let b = c.Trace.Cursor.i + block_events in
        replay_block_skip t s c
          ~block_stop:(if b < stop then b else stop)
          ~stop
      done

let replay_request t (c : Trace.Cursor.t) r =
  Trace.Cursor.seek_request c r;
  replay_events t c ~stop:c.Trace.Cursor.trace.Trace.req_start.(r + 1)
