(** Return address stack: a small circular predictor for [ret] targets. *)

open Dlink_isa

type t

val create : depth:int -> t
val push : t -> Addr.t -> unit
val pop : t -> Addr.t option
(** [None] when empty (predict structurally unknown). *)

val pop_default : t -> Addr.t
(** Allocation-free {!pop}: {!Addr.none} when empty.  Pushed addresses are
    always non-negative, so the sentinel is unambiguous. *)

val flush : t -> unit
val depth : t -> int
val occupancy : t -> int
