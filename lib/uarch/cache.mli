(** Set-associative cache model (tag/LRU state only; no data payload). *)

open Dlink_isa

type t

val create : name:string -> size_bytes:int -> ways:int -> t
(** [line_bytes] is the architectural 64.  [size_bytes / (64 * ways)] must
    be a power of two. *)

val name : t -> string
val size_bytes : t -> int
val ways : t -> int

val access : t -> Addr.t -> bool
(** [true] on hit; on miss the line is filled (LRU victim evicted). *)

val present : t -> Addr.t -> bool
(** Non-intrusive line probe. *)

val flush : t -> unit
val lines_valid : t -> int
