(** Branch target buffer: maps a branch instruction's PC to its last
    observed target.  The paper's mechanism works by training the BTB entry
    of a library call site with the *function* address instead of the
    trampoline address. *)

open Dlink_isa

type t

val create : sets:int -> ways:int -> t
val predict : t -> Addr.t -> Addr.t option

val predict_default : t -> Addr.t -> Addr.t
(** Allocation-free {!predict}: {!Addr.none} on a miss. *)

val update : t -> Addr.t -> Addr.t -> unit
val flush : t -> unit
val valid_count : t -> int
