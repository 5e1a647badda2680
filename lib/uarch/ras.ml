open Dlink_isa

type t = {
  slots : Addr.t array;
  mutable top : int; (* next push position *)
  mutable count : int; (* valid entries, <= depth *)
}

let create ~depth =
  if depth <= 0 then invalid_arg "Ras.create: depth must be positive";
  { slots = Array.make depth 0; top = 0; count = 0 }

let depth t = Array.length t.slots
let occupancy t = t.count

let push t a =
  t.slots.(t.top) <- a;
  t.top <- (t.top + 1) mod depth t;
  if t.count < depth t then t.count <- t.count + 1

let pop t =
  if t.count = 0 then None
  else begin
    t.top <- (t.top + depth t - 1) mod depth t;
    t.count <- t.count - 1;
    Some t.slots.(t.top)
  end

let pop_default t =
  if t.count = 0 then Addr.none
  else begin
    t.top <- (t.top + depth t - 1) mod depth t;
    t.count <- t.count - 1;
    t.slots.(t.top)
  end

let flush t =
  t.top <- 0;
  t.count <- 0
