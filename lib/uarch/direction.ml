open Dlink_isa

type t = {
  counters : Bytes.t; (* 2-bit saturating counters, one byte each *)
  mask : int;
  history_mask : int;
  mutable history : int;
}

let create ~table_bits ~history_bits =
  if table_bits < 4 || table_bits > 24 then
    invalid_arg "Direction.create: table_bits out of range";
  if history_bits < 0 || history_bits > 24 then
    invalid_arg "Direction.create: history_bits out of range";
  let n = 1 lsl table_bits in
  {
    counters = Bytes.make n '\001';
    (* weakly not-taken *)
    mask = n - 1;
    history_mask = (1 lsl history_bits) - 1;
    history = 0;
  }

let index t (pc : Addr.t) = (pc lxor t.history) land t.mask

let predict t pc = Char.code (Bytes.get t.counters (index t pc)) >= 2

let update t pc taken =
  let i = index t pc in
  let c = Char.code (Bytes.get t.counters i) in
  let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
  Bytes.set t.counters i (Char.chr c');
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.history_mask

let flush t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\001';
  t.history <- 0
