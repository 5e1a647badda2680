open Dlink_isa

type t = Addr.t Assoc_table.t

let create ~sets ~ways : t = Assoc_table.create ~sets ~ways
let predict t pc = Assoc_table.find t pc
let predict_default t pc = Assoc_table.find_default t ~tag:0 pc ~default:Addr.none
let update t pc target = Assoc_table.insert t ~tag:0 pc target
let flush t = Assoc_table.clear t
let valid_count t = Assoc_table.valid_count t
