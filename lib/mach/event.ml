open Dlink_isa

module Kind = struct
  let none = 0
  let call_direct = 1
  let call_indirect = 2
  let jump_direct = 3
  let jump_indirect = 4
  let jump_resolver = 5
  let cond_branch = 6
  let return = 7
end

type t = {
  mutable pc : Addr.t;
  mutable size : int;
  mutable kind : int;
  mutable in_plt : bool;
  mutable plt_call : bool;
  mutable got_store : bool;
  mutable taken : bool;
  mutable load : Addr.t;
  mutable load2 : Addr.t;
  mutable store : Addr.t;
  mutable target : Addr.t;
  mutable aux : Addr.t;
}

let make ?(size = 4) ?(kind = Kind.none) ?(in_plt = false) ?(plt_call = false)
    ?(got_store = false) ?(taken = false) ?(load = Addr.none)
    ?(load2 = Addr.none) ?(store = Addr.none) ?(target = Addr.none)
    ?(aux = Addr.none) pc =
  { pc; size; kind; in_plt; plt_call; got_store; taken; load; load2; store;
    target; aux }

let copy t = { t with pc = t.pc }

let pp ppf t =
  Format.fprintf ppf "@[pc=%a size=%d%s%s@]" Addr.pp t.pc t.size
    (if t.in_plt then " [plt]" else "")
    (if t.kind = Kind.none then "" else Printf.sprintf " -> 0x%x" t.target)
