open Dlink_isa
module Event = Dlink_mach.Event

type violation =
  | Fetch_unmapped of { core : int; pc : Addr.t }
  | Stale_skip of { core : int; pc : Addr.t; tramp : Addr.t; target : Addr.t }
  | Stale_message of { src : int; addr : Addr.t; stamp : int }

type cfg = {
  in_mapped : Addr.t -> bool;
  skip_target_ok : tramp:Addr.t -> target:Addr.t -> bool;
  message_fresh : stamp:int -> Addr.t -> bool;
  epoch_guard : bool;
}

type t = {
  cfg : cfg;
  max_recorded : int;
  mutable checks : int;
  mutable n_violations : int;
  mutable n_fetch_unmapped : int;
  mutable n_stale_skips : int;
  mutable n_stale_messages : int;
  mutable aba_discards : int;
  mutable recorded : violation list; (* newest first, capped *)
  mutable first_at : int option; (* checks index of the first violation *)
}

let create ?(max_recorded = 32) cfg =
  {
    cfg;
    max_recorded;
    checks = 0;
    n_violations = 0;
    n_fetch_unmapped = 0;
    n_stale_skips = 0;
    n_stale_messages = 0;
    aba_discards = 0;
    recorded = [];
    first_at = None;
  }

let record t v =
  t.n_violations <- t.n_violations + 1;
  if t.first_at = None then t.first_at <- Some t.checks;
  (match v with
  | Fetch_unmapped _ -> t.n_fetch_unmapped <- t.n_fetch_unmapped + 1
  | Stale_skip _ -> t.n_stale_skips <- t.n_stale_skips + 1
  | Stale_message _ -> t.n_stale_messages <- t.n_stale_messages + 1);
  if List.length t.recorded < t.max_recorded then t.recorded <- v :: t.recorded

(* The per-retired-event asserts.  A redirected direct call — actual
   target differing from the encoded one — is a trampoline skip; it is
   legal only while the trampoline's GOT slot still justifies the target,
   which the embedder's [skip_target_ok] re-derives from live loader and
   memory state.  Everything else reduces to "never execute unmapped
   text". *)
let on_retire t ~core (ev : Event.t) =
  t.checks <- t.checks + 1;
  if not (t.cfg.in_mapped ev.Event.pc) then
    record t (Fetch_unmapped { core; pc = ev.Event.pc });
  let tramp = ev.Event.aux and target = ev.Event.target in
  if
    ev.Event.kind = Event.Kind.call_direct
    && target <> tramp
    && not (t.cfg.skip_target_ok ~tramp ~target)
  then record t (Stale_skip { core; pc = ev.Event.pc; tramp; target })

(* The interpreter refuses to fetch unmapped text before any event
   retires; a driver that catches [Process.Fault] reports it here so the
   crash is classified with the same vocabulary. *)
let record_fetch_fault t ~core ~pc =
  t.checks <- t.checks + 1;
  record t (Fetch_unmapped { core; pc })

let record_stale_skip t ~core ~pc ~tramp ~target =
  t.checks <- t.checks + 1;
  record t (Stale_skip { core; pc; tramp; target })

(* Bus validate hook: [true] lets the message apply.  With the epoch
   guard on, a stale message is discarded — recovery, counted but not a
   violation.  With the guard off (ablation: what the protocol would do
   without generation stamps) the stale message goes through and the
   checker records the ABA violation it causes. *)
let on_message t ~src ~stamp addr =
  t.checks <- t.checks + 1;
  if t.cfg.message_fresh ~stamp addr then true
  else if t.cfg.epoch_guard then begin
    t.aba_discards <- t.aba_discards + 1;
    false
  end
  else begin
    record t (Stale_message { src; addr; stamp });
    true
  end

let checks t = t.checks
let violations t = t.n_violations
let fetch_unmapped t = t.n_fetch_unmapped
let stale_skips t = t.n_stale_skips
let stale_messages t = t.n_stale_messages
let aba_discards t = t.aba_discards
let recorded t = List.rev t.recorded
let first_violation t = match List.rev t.recorded with v :: _ -> Some v | [] -> None
let first_violation_at t = t.first_at

let violation_to_string = function
  | Fetch_unmapped { core; pc } ->
      Printf.sprintf "fetch-unmapped core=%d pc=%s" core (Addr.to_hex pc)
  | Stale_skip { core; pc; tramp; target } ->
      Printf.sprintf "stale-skip core=%d pc=%s tramp=%s target=%s" core
        (Addr.to_hex pc) (Addr.to_hex tramp) (Addr.to_hex target)
  | Stale_message { src; addr; stamp } ->
      Printf.sprintf "stale-message src=%d addr=%s stamp=%d" src
        (Addr.to_hex addr) stamp
