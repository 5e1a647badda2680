(** Alternate BTB (the paper's central structure, §3.1).

    Maps a trampoline's address (the architectural target of a library call
    instruction) to the library function address the trampoline branches to,
    together with the GOT slot the target was loaded from.  Populated at
    retire time from the call-followed-by-memory-indirect-branch idiom;
    cleared wholesale whenever a store hits the companion Bloom filter.

    Entries optionally carry an address-space id ([asid], default 0) so the
    table can be preserved across context switches, like an ASID-tagged TLB
    (§3.3): a lookup only hits entries installed by the same address space.

    Each entry costs 12 bytes in hardware (two 48-bit addresses, §5.3). *)

open Dlink_isa

type entry = { func : Addr.t; got_slot : Addr.t }
type t

val create : ?ways:int -> entries:int -> unit -> t
(** Default fully associative (ways = entries), LRU replacement.
    [entries mod ways] must be 0 and [entries/ways] a power of two. *)

val entries : t -> int
val lookup : ?asid:int -> t -> Addr.t -> entry option
(** Keyed by trampoline address (and ASID tag); refreshes LRU. *)

val no_entry : entry
(** Physical miss sentinel returned by {!lookup_default}; test with [==]. *)

val lookup_default : t -> asid:int -> Addr.t -> entry
(** Allocation-free {!lookup}: returns {!no_entry} (physically) on a
    miss. *)

val insert : t -> asid:int -> Addr.t -> entry -> unit
val clear : ?asid:int -> t -> unit
(** [clear t] drops everything; [clear ~asid t] one address space only. *)

val set_index : t -> Addr.t -> int
(** The set a trampoline address maps to (quarantine granularity). *)

val clear_set : t -> int -> unit
(** Invalidate one set across all ASIDs — used by the graceful-degradation
    fallback to evict a set implicated in a detected mis-skip. *)

val n_sets : t -> int
val valid_count : ?asid:int -> t -> int
val storage_bytes : t -> int
(** 12 bytes per entry, as estimated in the paper. *)

val iter : (Addr.t -> entry -> unit) -> t -> unit
