open Dlink_isa

type t = {
  counts : (Addr.t, int ref) Hashtbl.t;
  sites : (Addr.t, unit) Hashtbl.t;
  mutable site_order : (Addr.t * int) list; (* reversed *)
  mutable total : int;
  record_stream : bool;
  mutable stream : int array;
  mutable stream_len : int;
}

let create ?(record_stream = false) () =
  {
    counts = Hashtbl.create 512;
    sites = Hashtbl.create 512;
    site_order = [];
    total = 0;
    record_stream;
    stream = (if record_stream then Array.make 4096 0 else [||]);
    stream_len = 0;
  }

let reset t =
  Hashtbl.reset t.counts;
  Hashtbl.reset t.sites;
  t.site_order <- [];
  t.total <- 0;
  t.stream_len <- 0

let push_stream t target =
  if t.record_stream then begin
    if t.stream_len = Array.length t.stream then begin
      let bigger = Array.make (2 * t.stream_len) 0 in
      Array.blit t.stream 0 bigger 0 t.stream_len;
      t.stream <- bigger
    end;
    t.stream.(t.stream_len) <- target;
    t.stream_len <- t.stream_len + 1
  end

let note t ~site target =
  t.total <- t.total + 1;
  (match Hashtbl.find_opt t.counts target with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts target (ref 1));
  if not (Hashtbl.mem t.sites site) then begin
    Hashtbl.replace t.sites site ();
    t.site_order <- (site, t.total) :: t.site_order
  end;
  push_stream t target

let tramp_calls t = t.total
let distinct_trampolines t = Hashtbl.length t.counts

let counts t =
  Hashtbl.fold (fun a r acc -> (a, !r) :: acc) t.counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let rank_frequency t =
  List.mapi (fun i (_, c) -> (float_of_int (i + 1), float_of_int c)) (counts t)

let stream t = Array.sub t.stream 0 t.stream_len
let site_first_touch t = List.rev t.site_order
