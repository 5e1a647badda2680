(** Retire-stream events: one per architecturally executed instruction.

    The microarchitecture model, the trampoline-skip controller, and the
    profiler all consume this stream, mirroring the paper's design where the
    proposed hardware observes instructions at the retire stage.

    An event is one mutable record that its source fills in place and
    reuses for the next instruction: the interpreter ({!Process}) owns one,
    a packed-trace cursor owns another.  Consumers must not keep the record
    past the call that hands it to them; {!copy} it to keep it.  An absent
    operand holds {!Dlink_isa.Addr.none} (flags: [false]), exactly as the
    trace decoder produces it, so an interpreter event and its decoded copy
    compare equal. *)

open Dlink_isa

(** Branch kinds (three bits, the trace format's encoding). *)
module Kind : sig
  val none : int
  val call_direct : int
  val call_indirect : int
  val jump_direct : int
  val jump_indirect : int
  (** a PLT trampoline retires as this, with [aux] = its GOT slot *)

  val jump_resolver : int
  (** the [Resolve] primitive's final jump *)

  val cond_branch : int
  val return : int
end

type t = {
  mutable pc : Addr.t;
  mutable size : int;
  mutable kind : int;  (** a {!Kind} code; {!Kind.none} for non-branches *)
  mutable in_plt : bool;  (** instruction lies in some module's PLT section *)
  mutable plt_call : bool;
      (** profile-eligible library call: a direct call whose
          {e architectural} target, or an indirect call whose target, is a
          PLT entry *)
  mutable got_store : bool;  (** the store address lies in a GOT *)
  mutable taken : bool;  (** conditional branches only *)
  mutable load : Addr.t;
  mutable load2 : Addr.t;
  mutable store : Addr.t;
  mutable target : Addr.t;
      (** where control went; a conditional branch's encoded target
          whether or not it was taken *)
  mutable aux : Addr.t;
      (** the architectural target of a direct call (equal to [target]
          unless the trampoline-skip mechanism redirected the fetch), the
          GOT slot of an indirect call or jump *)
}

val make :
  ?size:int ->
  ?kind:int ->
  ?in_plt:bool ->
  ?plt_call:bool ->
  ?got_store:bool ->
  ?taken:bool ->
  ?load:Addr.t ->
  ?load2:Addr.t ->
  ?store:Addr.t ->
  ?target:Addr.t ->
  ?aux:Addr.t ->
  Addr.t ->
  t
(** A fresh event at a pc: size 4, no branch, every operand absent unless
    given. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
