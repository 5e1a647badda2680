(* In-memory span recorder for the traced benchmark run.

   A span is a named [t0, t1) interval on the monotonic clock with the id
   of the span that caused it.  Spans may be opened on any domain (cells
   run on the Dpool), so the parent is passed explicitly rather than kept
   on a per-domain stack, and closed spans are appended under a mutex.
   Nothing is written until the run ends. *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

type t = { next : int Atomic.t; lock : Mutex.t; mutable closed : span list }

(* Parent id of top-level spans. *)
let root = 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { next = Atomic.make 1; lock = Mutex.create (); closed = [] }

let add t s =
  Mutex.lock t.lock;
  t.closed <- s :: t.closed;
  Mutex.unlock t.lock

(* [with_span t ~parent name f] runs [f id] inside a new span [id]; the
   span is recorded even when [f] raises. *)
let with_span t ~parent name f =
  let id = Atomic.fetch_and_add t.next 1 in
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () -> add t { id; parent; name; t0; t1 = now_ns () })
    (fun () -> f id)

let spans t =
  Mutex.lock t.lock;
  let l = t.closed in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.id b.id) l

let duration s = s.t1 - s.t0

(* Length of the union of [intervals] clipped to [lo, hi).  Children that
   ran concurrently on several domains overlap; the union counts each
   covered instant once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* A span's self time: its duration minus the part of its interval that
   its direct children cover.  Grandchildren are already inside their
   parent's interval, so only direct children count. *)
let self_ns all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.t0, c.t1) else None)
      all
  in
  duration s - covered ~lo:s.t0 ~hi:s.t1 children

let durations_of all name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    all

(* Summed self time of the spans called [name]. *)
let self_of all name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + self_ns all s else acc)
    0 all

let to_json all =
  Dlink_util.Json.List
    (List.map
       (fun s ->
         Dlink_util.Json.Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", String s.name);
             ("t0_ns", Int s.t0);
             ("t1_ns", Int s.t1);
             ("self_ns", Int (self_ns all s));
           ])
       all)
