open Dlink_isa

type t = { cname : string; size_bytes : int; table : unit Assoc_table.t }

let create ~name ~size_bytes ~ways =
  let lines = size_bytes / Addr.cache_line_bytes in
  if lines <= 0 || lines mod ways <> 0 then
    invalid_arg "Cache.create: size/ways mismatch";
  let sets = lines / ways in
  { cname = name; size_bytes; table = Assoc_table.create ~sets ~ways }

let name t = t.cname
let size_bytes t = t.size_bytes
let ways t = Assoc_table.ways t.table
let access t a = Assoc_table.touch t.table ~tag:0 (Addr.line_of a) ()
let present t a = Assoc_table.probe t.table (Addr.line_of a) <> None
let flush t = Assoc_table.clear t.table
let lines_valid t = Assoc_table.valid_count t.table
