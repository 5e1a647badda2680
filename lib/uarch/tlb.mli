(** Translation lookaside buffer model (4 KiB pages).

    Entries optionally carry an address-space id ([asid], default 0), so a
    context switch can preserve translations instead of flushing them. *)

open Dlink_isa

type t

val create : name:string -> entries:int -> ways:int -> t
(** [entries / ways] must be a power of two. *)

val name : t -> string
val entries : t -> int

val access : t -> asid:int -> Addr.t -> bool
(** [true] on hit; fills on miss.  [asid] is a mandatory label: the engine
    calls this per retired instruction, and passing a value to an optional
    argument would box it in [Some] on every access.  Pass [~asid:0] when
    untagged. *)

val present : ?asid:int -> t -> Addr.t -> bool
val flush : ?asid:int -> t -> unit
(** [flush t] drops everything; [flush ~asid t] one address space only. *)
