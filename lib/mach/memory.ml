module Site_hash = Dlink_util.Site_hash

type t = (int, int) Hashtbl.t

let word_index a =
  assert (a land 7 = 0);
  a lsr 3

let create () : t = Hashtbl.create 4096
(* [find] rather than [find_opt]: a read is on the interpreter's per-step
   path and must not allocate an option. *)
let read t a = try Hashtbl.find t (word_index a) with Not_found -> 0

let write t a v =
  let i = word_index a in
  if v = 0 then Hashtbl.remove t i else Hashtbl.replace t i v

let copy = Hashtbl.copy

let blit ~src ~dst =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

let fingerprint t =
  Hashtbl.fold (fun k v acc -> acc lxor Site_hash.mix2 k v) t 0

let cell_count = Hashtbl.length
