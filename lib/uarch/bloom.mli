(** Bloom filter over addresses (paper §3.1–3.2).

    Guards the ABTB: it records the GOT slot addresses backing live ABTB
    entries.  A retired store whose address hits the filter forces a full
    ABTB + filter clear.  No false negatives — a GOT modification can never
    be missed — while false positives only cost a redundant clear. *)

open Dlink_isa

type t

val create : bits:int -> hashes:int -> t
(** [bits] must be a positive power of two; [hashes] in [\[1, 8\]]. *)

val add : t -> asid:int -> Addr.t -> unit
(** The address-space id (0 = untagged) is folded into the hash, so
    co-resident address spaces keep probabilistically disjoint entries and
    [mem] becomes a per-address-space query.  Clearing is always global.
    The label is mandatory because [mem] runs per retired store: an
    optional argument would allocate a [Some] per call. *)

val mem : t -> asid:int -> Addr.t -> bool

val clear : t -> unit
(** O(1): bumps the filter's generation stamp (the field is packed 32 bits
    per word with a per-word stamp, lazily re-zeroed on the next write),
    mirroring the hardware's single-cycle flash reset — clears fire on
    every guarded GOT store, so they must not walk the field. *)

val clear_bit : t -> int -> unit
(** Fault-injection/test API: force one bit of the field to zero,
    deliberately breaking the no-false-negative guarantee (models a bit
    flip in the filter SRAM).  Raises [Invalid_argument] when the index is
    outside [0, size_bits).  Never called by the mechanism itself. *)

val bits_set : t -> int
val size_bits : t -> int

val false_positive_rate : t -> float
(** Theoretical rate for the current occupancy. *)
