open Dlink_isa

type entry = { func : Addr.t; got_slot : Addr.t }
type t = { table : entry Assoc_table.t; n_entries : int }

let create ?ways ~entries () =
  if entries <= 0 then invalid_arg "Abtb.create: entries must be positive";
  let ways = Option.value ways ~default:entries in
  if ways <= 0 || entries mod ways <> 0 then
    invalid_arg "Abtb.create: entries/ways mismatch";
  { table = Assoc_table.create ~sets:(entries / ways) ~ways; n_entries = entries }

let entries t = t.n_entries

(* Physical sentinel for allocation-free lookups: compare with [==]. *)
let no_entry = { func = Addr.none; got_slot = Addr.none }

let lookup ?(asid = 0) t tramp = Assoc_table.find t.table ~tag:asid tramp

let lookup_default t ~asid tramp =
  Assoc_table.find_default t.table ~tag:asid tramp ~default:no_entry
let insert t ~asid tramp e = Assoc_table.insert t.table ~tag:asid tramp e
let clear ?asid t = Assoc_table.clear ?tag:asid t.table
let set_index t tramp = Assoc_table.set_of_key t.table tramp
let clear_set t s = Assoc_table.clear_set t.table s
let n_sets t = Assoc_table.sets t.table
let valid_count ?asid t = Assoc_table.valid_count ?tag:asid t.table
let storage_bytes t = 12 * t.n_entries
let iter f t = Assoc_table.iter f t.table
