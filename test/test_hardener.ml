(* Tests for the automatic §5.1 repair tool. The headline properties:

   - hardened programs neutralize every placement-rooted attack (all but
     the two copy-loop attacks, which the runtime bounds-check defense
     also misses);
   - soundness hand-off: any attack that still wins against the hardened
     program is still flagged by the static checker (no silent gaps);
   - benign behaviour is preserved. *)

open Pna_minicpp.Dsl
module H = Pna_analysis.Hardener
module PC = Pna_analysis.Placement_checker
module C = Pna_attacks.Catalog
module D = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm

(* the attacks whose root cause is outside the placement discipline *)
let out_of_scope = [ "L06-copyloop"; "L10-internal" ]

let run_hardened (a : C.t) =
  D.run ~config:Config.none { a with C.program = H.harden a.C.program; C.hardened = None }

let neutralization_cases =
  List.map
    (fun (a : C.t) ->
      Alcotest.test_case
        (Fmt.str "hardened %s: %s" a.C.id
           (if List.mem a.C.id out_of_scope then "survives (documented)"
            else "neutralized"))
        `Quick
        (fun () ->
          let r = run_hardened a in
          if List.mem a.C.id out_of_scope then
            Alcotest.(check bool) "copy-loop attack survives" true
              r.D.verdict.C.success
          else
            Alcotest.(check bool) "attack neutralized" false
              r.D.verdict.C.success))
    All.attacks

let soundness_cases =
  List.map
    (fun (a : C.t) ->
      Alcotest.test_case (Fmt.str "no silent gap on hardened %s" a.C.id) `Quick
        (fun () ->
          let h = H.harden a.C.program in
          let r = D.run ~config:Config.none { a with C.program = h; C.hardened = None } in
          if r.D.verdict.C.success then
            Alcotest.(check bool)
              "surviving attack still flagged by the checker" true
              (PC.actionable h <> [])))
    All.attacks

let test_repair_counts () =
  Alcotest.(check int) "L11 has two placement sites" 2
    (H.count_repairs Pna_attacks.L11_data_bss.attack.C.program);
  Alcotest.(check int) "L23 has placement + placed delete" 2
    (H.count_repairs Pna_attacks.L23_memleak.attack.C.program)

let test_benign_behaviour_preserved () =
  (* the benign pool server does equal-size placements: every guard passes
     and the workload's result is unchanged *)
  let h = H.harden Pna.Workloads.pool_server in
  let o = Vm.execute ~config:Config.none ~input_ints:[ 50 ] h in
  match o.O.status with
  | O.Exited 50 -> ()
  | st -> Alcotest.failf "hardened workload diverged: %a" O.pp_status st

let test_fallback_on_too_small_arena () =
  (* a failing guard takes the §5.1 fallback: heap allocation, no
     corruption *)
  let prog =
    program ~classes:Pna_attacks.Schema.base_classes
      ~globals:[ global "s" (cls "Student"); global "sentinel" int ]
      (Pna_attacks.Schema.base_funcs
      @ [
          func "main"
            [
              decli "gs" (ptr (cls "GradStudent"))
                (pnew (addr (v "s")) (cls "GradStudent") []);
              expr (mcall (v "gs") "setSSN" [ i 111; i 222; i 333 ]);
              ret (i 0);
            ];
        ])
  in
  let h = H.harden prog in
  let m = Interp.load ~config:Config.none h in
  let o = Vm.run m (Vm.load h) ~entry:"main" in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "hardened run failed: %a" O.pp_status st);
  Alcotest.(check int) "sentinel untouched" 0
    (Pna_vmem.Vmem.read_i32
       (Pna_machine.Machine.mem m)
       (Pna_machine.Machine.global_addr_exn m "sentinel"));
  (* ... and the SSN landed in the heap fallback object instead *)
  Alcotest.(check bool) "fallback allocated on the heap" true
    ((Pna_machine.Machine.heap_stats m).Pna_machine.Heap.in_use >= 32)

let test_placed_delete_rewritten () =
  let h = H.harden (Pna_attacks.L23_memleak.mk_program ~checked:false) in
  let m = Interp.load ~config:Config.none h in
  Pna_machine.Machine.set_input ~ints:[ 100 ] m;
  let _ = Vm.run m (Vm.load h) ~entry:"main" in
  Alcotest.(check int) "no leak after repair" 0
    (Pna_machine.Machine.leaked_bytes m)

let test_checker_accepts_hardened_guards () =
  (* the checker understands the emitted guard and reports nothing on a
     straightforward repaired overflow *)
  let h = H.harden Pna_attacks.L13_stack_ret.attack.C.program in
  Alcotest.(check (list string)) "clean" []
    (List.map
       (fun f -> f.Pna_analysis.Finding.message)
       (PC.actionable h))

let test_hardened_output_roundtrips () =
  (* the repaired program is still valid concrete syntax *)
  let h = H.harden Pna_attacks.L19_array_stack.attack.C.program in
  let src = Pna_minicpp.Cpp_print.program_to_string h in
  let reparsed = Pna_minicpp.Parser.program src in
  Alcotest.(check string) "print/parse fixpoint" src
    (Pna_minicpp.Cpp_print.program_to_string reparsed)

let test_arena_size_intrinsic () =
  let prog =
    program
      ~globals:[ global "pool" (char_arr 64); global "r" int ]
      [
        func "main"
          [ set (v "r") (call "__arena_size" [ v "pool" +: i 10 ]); ret (i 0) ];
      ]
  in
  let m = Interp.load ~config:Config.none prog in
  let _ = Vm.run m (Vm.load prog) ~entry:"main" in
  Alcotest.(check int) "remaining bytes from offset" 54
    (Pna_vmem.Vmem.read_i32
       (Pna_machine.Machine.mem m)
       (Pna_machine.Machine.global_addr_exn m "r"))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "hardener",
    neutralization_cases @ soundness_cases
    @ [
        t "repair counts" test_repair_counts;
        t "benign behaviour preserved" test_benign_behaviour_preserved;
        t "failing guard takes the heap fallback" test_fallback_on_too_small_arena;
        t "placed delete rewritten, leak gone" test_placed_delete_rewritten;
        t "checker accepts the emitted guards" test_checker_accepts_hardened_guards;
        t "hardened output is valid syntax" test_hardened_output_roundtrips;
        t "__arena_size intrinsic" test_arena_size_intrinsic;
      ] )
