(** Gshare conditional-branch direction predictor: a table of 2-bit
    saturating counters indexed by PC xor global history. *)

open Dlink_isa

type t

val create : table_bits:int -> history_bits:int -> t
(** [table_bits] in [\[4, 24\]]; [history_bits] in [\[0, 24\]]. *)

val predict : t -> Addr.t -> bool
(** Predicted taken? (does not update state) *)

val update : t -> Addr.t -> bool -> unit
(** Train with the actual direction and shift it into the history. *)

val flush : t -> unit
