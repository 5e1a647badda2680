type t = {
  mutable sorted : Image.t array; (* ascending by text.base *)
  by_id : (int, Image.t) Hashtbl.t;
  by_name : (string, Image.t) Hashtbl.t;
  (* [Some img] per entry of [sorted], built once per remap so lookups
     return a shared option instead of allocating one. *)
  mutable found : Image.t option array;
  mutable memo : Image.t option; (* last successful lookup *)
}

let check_overlaps sorted =
  for i = 0 to Array.length sorted - 2 do
    if Image.span_end sorted.(i) > sorted.(i + 1).Image.text.base then
      invalid_arg
        (Printf.sprintf "Space: images %s and %s overlap" sorted.(i).Image.name
           sorted.(i + 1).Image.name)
  done

let create images =
  let sorted = Array.of_list images in
  Array.sort (fun (a : Image.t) b -> compare a.text.base b.text.base) sorted;
  check_overlaps sorted;
  let by_id = Hashtbl.create 16 and by_name = Hashtbl.create 16 in
  Array.iter
    (fun (img : Image.t) ->
      Hashtbl.replace by_id img.id img;
      Hashtbl.replace by_name img.name img)
    sorted;
  { sorted; by_id; by_name; found = Array.map Option.some sorted; memo = None }

let add t (img : Image.t) =
  if Hashtbl.mem t.by_id img.id then
    invalid_arg (Printf.sprintf "Space.add: duplicate image id %d" img.id);
  if Hashtbl.mem t.by_name img.name then
    invalid_arg (Printf.sprintf "Space.add: duplicate module %s" img.name);
  let sorted = Array.append t.sorted [| img |] in
  Array.sort (fun (a : Image.t) b -> compare a.text.base b.text.base) sorted;
  check_overlaps sorted;
  t.sorted <- sorted;
  t.found <- Array.map Option.some sorted;
  Hashtbl.replace t.by_id img.id img;
  Hashtbl.replace t.by_name img.name img;
  t.memo <- None

let remove t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> invalid_arg (Printf.sprintf "Space.remove: unknown image id %d" id)
  | Some img ->
      t.sorted <-
        Array.of_list
          (List.filter
             (fun (i : Image.t) -> i.id <> id)
             (Array.to_list t.sorted));
      t.found <- Array.map Option.some t.sorted;
      Hashtbl.remove t.by_id id;
      Hashtbl.remove t.by_name img.Image.name;
      t.memo <- None

let images t = t.sorted

let image_at t a =
  match t.memo with
  | Some img as hit when Image.contains img a -> hit
  | _ ->
      let n = Array.length t.sorted in
      (* rightmost image whose base <= a *)
      let rec search lo hi =
        if lo >= hi then lo - 1
        else
          let mid = (lo + hi) / 2 in
          if t.sorted.(mid).Image.text.base <= a then search (mid + 1) hi
          else search lo mid
      in
      let i = search 0 n in
      if i < 0 || not (Image.contains t.sorted.(i) a) then None
      else begin
        t.memo <- t.found.(i);
        t.memo
      end

let fetch t a =
  match image_at t a with None -> None | Some img -> Image.fetch img a

let image_by_id t id = Hashtbl.find_opt t.by_id id
let image_by_name t name = Hashtbl.find_opt t.by_name name
