(** Packed retire-stream traces.

    A trace is the complete retire stream of one workload run — every
    request's events, warmup included — packed into a 2-byte info word per
    event plus a shared operand stream, with request boundaries on the
    side.  Decoding is allocation-free: a {!Cursor} owns one
    {!Dlink_mach.Event.t} that {!Cursor.advance} overwrites in place, so
    the replay engines walk millions of events without touching the
    heap.

    Event pcs are derived (fallthrough or branch target of the previous
    event) and stored explicitly only at control-flow discontinuities;
    every request's first event carries its pc, so requests can be replayed
    from any {!Cursor.seek_request} position. *)

open Dlink_mach

type t = private {
  info : Bytes.t;  (** 16-bit LE info word per event *)
  ops : int array;  (** operand stream, indexed via the info-word flags *)
  n_events : int;
  n_ops : int;
  req_start : int array;  (** event index per request, length requests+1 *)
  req_op_start : int array;  (** operand index per request, same length *)
  req_rtype : int array;  (** request type per request *)
  warmup : int;  (** the first [warmup] requests precede the window *)
}

val n_events : t -> int
val n_requests : t -> int
val warmup : t -> int

val measured_requests : t -> int
(** [n_requests t - warmup t]: how many in-window requests this trace can
    replay. *)

val request_rtype : t -> int -> int
val request_events : t -> int -> int
val storage_bytes : t -> int
(** Approximate heap footprint (info bytes + boxed operand words). *)

module Writer : sig
  type trace = t
  type t

  val create : unit -> t

  val start_request : t -> rtype:int -> unit
  (** Open the next request; must precede the first {!add}. *)

  val add : t -> Event.t -> unit
  (** Append one retired event, flags included (the source classifies
      [plt_call]/[got_store], so replay needs no loader).  Only the
      operands an event of its kind carries are stored: absent operands
      must hold {!Dlink_isa.Addr.none}, as the interpreter leaves them.
      Raises [Invalid_argument] outside a request or for sizes above
      15. *)

  val finish : t -> warmup:int -> trace
  (** Freeze into a compact trace whose first [warmup] requests are
      warmup.  The writer must not be reused afterwards. *)
end

module Cursor : sig
  type trace = t

  type t = {
    trace : trace;
    mutable i : int;  (** index of the next event to decode *)
    mutable op : int;
    mutable next_pc : int;
    ev : Event.t;
        (** the last decoded event, overwritten in place by {!advance}; a
            direct call without a stored [aux] decodes [aux = target] *)
  }

  val create : trace -> t
  val seek_request : t -> int -> unit

  val advance : t -> unit
  (** Decode the event at [i] into [ev] and step past it.
      Allocation-free.  The caller bounds [i] against [req_start]. *)

  val peek_in_plt : t -> bool
  (** The [in_plt] flag of the next (undecoded) event — used by the
      enhanced replay to drop a skipped trampoline without retiring it. *)
end

val to_events : t -> Event.t list
(** Reference decoder: the full stream as fresh copies of the decoded
    events, in retire order. *)
