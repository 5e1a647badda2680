(* The benchmark's own arithmetic: span self times, output digests and
   failed-operation counting. *)

open Perfbench

let span ~id ~parent t0 t1 = { Span.id; parent; name = "s"; t0; t1 }

let test_covered () =
  Alcotest.(check int) "empty" 0 (Span.covered ~lo:0 ~hi:100 []);
  Alcotest.(check int) "disjoint" 30
    (Span.covered ~lo:0 ~hi:100 [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping counted once" 40
    (Span.covered ~lo:0 ~hi:100 [ (10, 30); (20, 50) ]);
  Alcotest.(check int) "contained" 20
    (Span.covered ~lo:0 ~hi:100 [ (10, 30); (15, 25) ]);
  Alcotest.(check int) "clipped to the parent" 15
    (Span.covered ~lo:0 ~hi:100 [ (-10, 5); (90, 150) ])

let test_self_time () =
  let parent = span ~id:1 ~parent:Span.root 0 100 in
  let a = span ~id:2 ~parent:1 10 30 in
  let b = span ~id:3 ~parent:1 20 50 in
  (* A grandchild lies inside its own parent: it lowers [a]'s self time,
     not the root's. *)
  let grandchild = span ~id:4 ~parent:2 12 18 in
  let late = span ~id:5 ~parent:1 90 120 in
  let other = span ~id:6 ~parent:Span.root 0 100 in
  let all = [ parent; a; b; grandchild; late; other ] in
  Alcotest.(check int) "parent" (100 - 40 - 10) (Span.self_ns all parent);
  Alcotest.(check int) "child with a grandchild" (20 - 6) (Span.self_ns all a);
  Alcotest.(check int) "leaf" 6 (Span.self_ns all grandchild);
  Alcotest.(check int) "unrelated root" 100 (Span.self_ns all other)

let test_recorder () =
  let tr = Span.create () in
  let v =
    Span.with_span tr ~parent:Span.root "outer" (fun id ->
        Span.with_span tr ~parent:id "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "value" 42 v;
  (try
     Span.with_span tr ~parent:Span.root "raises" (fun _ -> failwith "boom")
   with Failure _ -> ());
  let spans = Span.spans tr in
  Alcotest.(check (list string)) "names in id order"
    [ "outer"; "inner"; "raises" ]
    (List.map (fun (s : Span.span) -> s.name) spans);
  let outer = List.nth spans 0 and inner = List.nth spans 1 in
  Alcotest.(check int) "inner's parent" outer.id inner.parent;
  Alcotest.(check bool) "inner inside outer" true
    (outer.t0 <= inner.t0 && inner.t1 <= outer.t1);
  Alcotest.(check int) "outer self = outer - inner"
    (Span.duration outer - Span.duration inner)
    (Span.self_ns spans outer)

let test_digest () =
  Alcotest.(check string) "md5 of the decimal list"
    "55b84a9d317184fe61224bfb4a060fb0" (Digests.of_ints [ 1; 2; 3 ]);
  Alcotest.(check bool) "order-sensitive" true
    (Digests.of_ints [ 1; 2; 3 ] <> Digests.of_ints [ 3; 2; 1 ]);
  let c = Dlink_uarch.Counters.create () in
  let before = Digests.of_ints (Digests.counters c) in
  c.abtb_clears <- 1;
  Alcotest.(check bool) "every counter field counts" true
    (before <> Digests.of_ints (Digests.counters c))

(* A real (tiny) cell: the digest covers per-request outcomes and
   counters, not quantiles. *)
let test_cell_digest () =
  let w = Ops.inputs 3 (Dlink_workloads.Synth.workload ()) in
  let cell =
    Dlink_trace.Serve_replay.run_cell
      ~cfg:{ Dlink_core.Serve.default_config with requests = 40; seed = 3 }
      w
  in
  let d = Digests.serve_cell cell in
  Alcotest.(check string) "quantiles left out" d
    (Digests.serve_cell
       { cell with p99_us = cell.p99_us +. 1.0; p50_us = 0.0 });
  Alcotest.(check bool) "per-request outcomes in" true
    (d
    <> Digests.serve_cell
         { cell with lat_fingerprint = cell.lat_fingerprint + 1 });
  Alcotest.(check bool) "conservation holds" true (Ops.serve_op cell).law_ok

let good label digest =
  {
    Ops.label;
    digest;
    counters = Dlink_uarch.Counters.create ();
    law_ok = true;
    error = None;
    counts = [];
  }

let test_failed_counting () =
  let expected = [ ("ok", "x"); ("pinned", "aaa"); ("law", "y") ] in
  let raised = Ops.guard [ "raises" ] (fun () -> failwith "deliberate") in
  let ops =
    [ good "ok" "x"; good "pinned" "aaa"; good "pinned" "bbb";
      { (good "law" "y") with law_ok = false } ]
    @ raised
  in
  Alcotest.(check int) "raise, law and digest mismatch fail" 3
    (Ops.count_failed ~expected ops);
  Alcotest.(check bool) "the exception is kept" true
    ((List.hd raised).error <> None);
  (* An entry-point call that raises fails every operation it was running. *)
  let all = Ops.guard [ "a"; "b"; "c" ] (fun () -> raise Not_found) in
  Alcotest.(check int) "whole batch" 3 (Ops.count_failed ~expected:[] all);
  (* With nothing committed for the seed only the laws are checked. *)
  Alcotest.(check int) "no committed digests" 0
    (Ops.count_failed ~expected:[] [ good "any" "z" ]);
  (* Label drift: an operation whose label has no committed digest fails,
     and so does a committed operation that never ran. *)
  let renamed = [ good "ok" "x"; good "pinned-v2" "aaa"; good "law" "y" ] in
  Alcotest.(check (list string)) "committed label never produced"
    [ "pinned" ] (Ops.missing ~expected renamed);
  Alcotest.(check int) "unknown label and missing label fail" 2
    (Ops.count_failed ~expected renamed);
  Alcotest.(check int) "the missing operation is attempted" 4
    (Ops.count_attempted ~expected renamed);
  Alcotest.(check int) "an operation dropped from the run fails" 1
    (Ops.count_failed ~expected [ good "ok" "x"; good "law" "y" ])

let test_inputs () =
  let w = Dlink_workloads.Synth.workload () in
  let same = Ops.inputs 0 w and shifted = Ops.inputs 2 w in
  Alcotest.(check bool) "seed 0 is the workload's own stream" true
    (same.gen_request 5 = w.gen_request 5);
  Alcotest.(check bool) "seed n starts at n * stride" true
    (shifted.gen_request 5 = w.gen_request ((2 * Ops.request_stride) + 5))

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "digest",
        [
          Alcotest.test_case "of_ints" `Quick test_digest;
          Alcotest.test_case "serve cell" `Quick test_cell_digest;
        ] );
      ( "ops",
        [
          Alcotest.test_case "failed counting" `Quick test_failed_counting;
          Alcotest.test_case "seeded inputs" `Quick test_inputs;
        ] );
    ]
