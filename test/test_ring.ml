(* The bounded ring behind the trace buffers, the flight recorder and
   the Vmem write trace: wrap-around at the capacity, oldest-first
   order, the drop count, clear and copy. *)

module Ring = Pna_ring.Ring

let ints = Alcotest.(list int)

let push_all r xs = List.iter (Ring.push r) xs

let test_fill_below_cap () =
  let r = Ring.create 8 in
  Alcotest.(check ints) "empty" [] (Ring.to_list r);
  push_all r [ 1; 2; 3 ];
  Alcotest.(check ints) "oldest first" [ 1; 2; 3 ] (Ring.to_list r);
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "no drops" 0 (Ring.dropped r)

let test_wraps_at_cap () =
  (* 40 pushes through a cap of 20 cross the grown-buffer boundary
     (16 -> 20) and wrap twice *)
  let r = Ring.create 20 in
  push_all r (List.init 40 Fun.id);
  Alcotest.(check ints) "newest 20, oldest first" (List.init 20 (fun i -> 20 + i))
    (Ring.to_list r);
  Alcotest.(check int) "length at cap" 20 (Ring.length r);
  Alcotest.(check int) "one drop per overwrite" 20 (Ring.dropped r);
  Ring.push r 40;
  Alcotest.(check ints) "one more wraps by one" (List.init 20 (fun i -> 21 + i))
    (Ring.to_list r);
  Alcotest.(check int) "drops keep counting" 21 (Ring.dropped r)

let test_cap_one () =
  let r = Ring.create 1 in
  Ring.push r "a";
  Alcotest.(check (list string)) "holds one" [ "a" ] (Ring.to_list r);
  Ring.push r "b";
  Ring.push r "c";
  Alcotest.(check (list string)) "keeps the newest" [ "c" ] (Ring.to_list r);
  Alcotest.(check int) "two dropped" 2 (Ring.dropped r)

let test_clear () =
  let r = Ring.create 4 in
  push_all r [ 1; 2; 3; 4; 5; 6 ];
  Ring.clear r;
  Alcotest.(check ints) "no values" [] (Ring.to_list r);
  Alcotest.(check int) "no length" 0 (Ring.length r);
  Alcotest.(check int) "drops reset" 0 (Ring.dropped r);
  push_all r [ 7; 8; 9; 10; 11 ];
  Alcotest.(check ints) "refills and wraps again" [ 8; 9; 10; 11 ] (Ring.to_list r);
  Alcotest.(check int) "counts from the clear" 1 (Ring.dropped r)

let test_copy_is_independent () =
  let r = Ring.create 4 in
  push_all r [ 1; 2; 3; 4; 5 ];
  let c = Ring.copy r in
  push_all r [ 6; 7 ];
  Alcotest.(check ints) "copy keeps its values" [ 2; 3; 4; 5 ] (Ring.to_list c);
  Alcotest.(check int) "copy keeps its drops" 1 (Ring.dropped c);
  Ring.push c 9;
  Alcotest.(check ints) "the original is untouched by the copy" [ 4; 5; 6; 7 ]
    (Ring.to_list r)

let test_rejects_non_positive_cap () =
  Alcotest.check_raises "cap 0"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0))

(* against a list model: the newest [cap] of everything pushed, and the
   rest counted *)
let prop_matches_model =
  QCheck.Test.make ~count:300 ~name:"ring: newest cap values, rest counted"
    QCheck.(pair (int_range 1 40) (list_of_size (Gen.int_range 0 120) small_int))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      push_all r xs;
      let n = List.length xs in
      let kept = List.filteri (fun i _ -> i >= n - cap) xs in
      Ring.to_list r = kept
      && Ring.length r = List.length kept
      && Ring.dropped r = n - List.length kept)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "ring",
    [
      t "fills below the cap, oldest first" test_fill_below_cap;
      t "wraps at the cap, drops counted" test_wraps_at_cap;
      t "cap 1 keeps the newest" test_cap_one;
      t "clear forgets values and drops" test_clear;
      t "copy is independent" test_copy_is_independent;
      t "non-positive cap rejected" test_rejects_non_positive_cap;
      QCheck_alcotest.to_alcotest prop_matches_model;
    ] )
