open Dlink_isa

type t = { tname : string; table : unit Assoc_table.t }

let create ~name ~entries ~ways =
  if entries <= 0 || entries mod ways <> 0 then
    invalid_arg "Tlb.create: entries/ways mismatch";
  { tname = name; table = Assoc_table.create ~sets:(entries / ways) ~ways }

let name t = t.tname
let entries t = Assoc_table.capacity t.table
let access t ~asid a = Assoc_table.touch t.table ~tag:asid (Addr.page_of a) ()
let present ?(asid = 0) t a =
  Assoc_table.probe t.table ~tag:asid (Addr.page_of a) <> None
let flush ?asid t = Assoc_table.clear ?tag:asid t.table
