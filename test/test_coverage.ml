(* Tests for the statement tracer / coverage collector. *)

open Pna_minicpp.Dsl
module Coverage = Pna.Coverage
module Vm = Pna_minicpp.Vm
module Config = Pna_defense.Config

let prog_loops n =
  program
    ~globals:[ global "acc" int ]
    [
      func "tick" [ set (v "acc") (v "acc" +: i 1) ];
      func "idle" [ ret0 ];
      func "main"
        [
          for_
            (decli "j" int (i 0))
            (v "j" <: i n)
            (set (v "j") (v "j" +: i 1))
            [ expr (call "tick" []) ];
          ret (i 0);
        ];
    ]

let run_with_coverage prog =
  let cov, hook = Coverage.collector () in
  let o = Vm.execute ~config:Config.none ~on_stmt:hook prog in
  (cov, o)

let test_counts_scale_with_loop () =
  let cov10, _ = run_with_coverage (prog_loops 10) in
  let cov100, _ = run_with_coverage (prog_loops 100) in
  Alcotest.(check bool) "more iterations, more statements" true
    (cov100.Coverage.total > cov10.Coverage.total * 5);
  Alcotest.(check int) "tick ran 10 times" 10
    (Option.value (Hashtbl.find_opt cov10.Coverage.per_func "tick") ~default:0)

let test_uncovered_function_reported () =
  let cov, _ = run_with_coverage (prog_loops 3) in
  let rows = Coverage.report cov (prog_loops 3) in
  let idle = List.find (fun r -> r.Coverage.cf_name = "idle") rows in
  Alcotest.(check bool) "idle never entered" false idle.Coverage.cf_entered;
  let main = List.find (fun r -> r.Coverage.cf_name = "main") rows in
  Alcotest.(check bool) "main entered" true main.Coverage.cf_entered

let test_static_counts () =
  let rows = Coverage.report (Coverage.create ()) (prog_loops 3) in
  let main = List.find (fun r -> r.Coverage.cf_name = "main") rows in
  (* for + its init decl + step assign + body expr + return = 5 *)
  Alcotest.(check int) "static statements in main" 5 main.Coverage.cf_static

let test_kind_histogram () =
  let cov, _ = run_with_coverage (prog_loops 4) in
  Alcotest.(check (option int)) "4 calls = 4 expr stmts" (Some 4)
    (Hashtbl.find_opt cov.Coverage.per_kind "expr")

let test_no_hook_no_cost () =
  (* same outcome whether or not the tracer is attached *)
  let _, o1 = run_with_coverage (prog_loops 7) in
  let o2 = Vm.execute ~config:Config.none (prog_loops 7) in
  Alcotest.(check int) "same steps" o2.Pna_minicpp.Outcome.steps
    o1.Pna_minicpp.Outcome.steps

(* ---- the per-statement bitmap (fuzzing's coverage-feedback signal) ---- *)

let run_bitmap prog =
  let bm, hook = Coverage.bitmap prog in
  let o = Vm.execute ~config:Config.none ~on_stmt:hook prog in
  (bm, o)

let test_bitmap_counts () =
  let prog = prog_loops 10 in
  let bm, _ = run_bitmap prog in
  Alcotest.(check bool) "site table is nonempty" true (Coverage.sites bm > 0);
  Alcotest.(check bool) "some sites lit" true (Coverage.hits bm > 0);
  Alcotest.(check bool) "idle never lit" true
    (List.for_all
       (fun i ->
         not
           (String.length (Coverage.site_label bm i) >= 4
            && String.sub (Coverage.site_label bm i) 0 4 = "idle"))
       (Coverage.hit_sites bm));
  (* tick's single statement ran exactly 10 times *)
  let tick_sites =
    List.filter
      (fun i ->
        String.length (Coverage.site_label bm i) >= 4
        && String.sub (Coverage.site_label bm i) 0 4 = "tick")
      (Coverage.hit_sites bm)
  in
  Alcotest.(check (list int)) "tick hit-counts" [ 10 ]
    (List.map (Coverage.hit_count bm) tick_sites)

let test_bitmap_reset () =
  let prog = prog_loops 5 in
  let bm, _ = run_bitmap prog in
  let lit_before = Coverage.hits bm in
  Coverage.reset bm;
  Alcotest.(check int) "reset zeroes every count" 0 (Coverage.hits bm);
  Alcotest.(check bool) "site table survives reset" true
    (Coverage.sites bm > 0 && lit_before > 0);
  Alcotest.(check (list int)) "no hit sites after reset" []
    (Coverage.hit_sites bm)

let test_bitmap_merge () =
  let prog = prog_loops 5 in
  let a, _ = run_bitmap prog in
  let acc, _ = Coverage.bitmap prog in
  let first = Coverage.merge ~into:acc a in
  Alcotest.(check int) "every lit site is new on first merge"
    (Coverage.hits a) first;
  let again = Coverage.merge ~into:acc a in
  Alcotest.(check int) "second merge lights nothing new" 0 again;
  (* counts accumulate: each site in acc now holds twice a's count *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Fmt.str "doubled count at %s" (Coverage.site_label acc i))
        (2 * Coverage.hit_count a i)
        (Coverage.hit_count acc i))
    (Coverage.hit_sites acc);
  let other, _ = Coverage.bitmap (prog_loops 3) in
  ignore other;
  (* a bitmap of a different program has a different site table *)
  let wrong, _ =
    Coverage.bitmap
      (program ~globals:[ global "acc" int ] [ func "main" [ ret (i 0) ] ])
  in
  Alcotest.check_raises "merging foreign bitmaps is refused"
    (Invalid_argument "Coverage.merge: bitmaps cover different programs")
    (fun () -> ignore (Coverage.merge ~into:acc wrong))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "coverage",
    [
      t "dynamic counts scale with iterations" test_counts_scale_with_loop;
      t "uncovered functions reported" test_uncovered_function_reported;
      t "static statement counts" test_static_counts;
      t "per-kind histogram" test_kind_histogram;
      t "tracer does not change behaviour" test_no_hook_no_cost;
      t "bitmap: sites, hits and per-site counts" test_bitmap_counts;
      t "bitmap: reset keeps the site table" test_bitmap_reset;
      t "bitmap: merge accumulates and reports novelty" test_bitmap_merge;
    ] )
