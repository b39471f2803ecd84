(* The listings/ directory: the paper's code as source files. Each file
   must parse, be flagged by the checker, and fall to the paper's attack
   when replayed on the simulated machine. *)

module P = Pna_minicpp.Parser
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome
module Vmem = Pna_vmem.Vmem
module PC = Pna_analysis.Placement_checker

let load_listing name =
  (* cwd is _build/default/test under `dune runtest`, the workspace root
     under `dune exec` *)
  let candidates = [ "../listings/" ^ name; "listings/" ^ name ] in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "listing %s not found" name
  in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  P.program src

let run ?(config = Config.none) ?(ints = []) ?(strings = []) prog =
  let m = Interp.load ~config prog in
  Machine.set_input ~ints ~strings m;
  (Vm.run m (Vm.load prog) ~entry:"main", m)

let global_i32 m name =
  Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m name)

let check_flagged name prog =
  Alcotest.(check bool) (name ^ " flagged by the checker") true
    (PC.actionable prog <> [])

let test_listing11 () =
  let prog = load_listing "listing11.cpp" in
  check_flagged "listing11" prog;
  let o, m = run ~ints:[ 4; 2009; 1; 0x41414141; 0x42424242; 2012 ] prog in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  let stud2 = Machine.global_addr_exn m "stud2" in
  Alcotest.(check int) "stud2.year overwritten" 2012
    (Vmem.read_i32 (Machine.mem m) (stud2 + 8))

let test_listing13 () =
  let prog = load_listing "listing13.cpp" in
  check_flagged "listing13" prog;
  (* naive smash under StackGuard: detected *)
  let m = Interp.load ~config:Config.stackguard prog in
  let sys = Machine.function_addr m "system" in
  Machine.set_input ~ints:[ 1; 2; sys ] m;
  (match (Vm.run m (Vm.load prog) ~entry:"main").O.status with
  | O.Stack_smashing_detected -> ()
  | st -> Alcotest.failf "expected canary abort, got %a" O.pp_status st);
  (* selective overwrite: undetected hijack *)
  let m = Interp.load ~config:Config.stackguard prog in
  let sys = Machine.function_addr m "system" in
  Machine.set_input ~ints:[ -1; -1; sys ] m;
  match (Vm.run m (Vm.load prog) ~entry:"main").O.status with
  | O.Arc_injection { symbol = "system"; _ } -> ()
  | st -> Alcotest.failf "expected hijack, got %a" O.pp_status st

let test_listing15 () =
  let prog = load_listing "listing15.cpp" in
  check_flagged "listing15" prog;
  let o, m = run ~ints:[ 40 ] prog in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  Alcotest.(check int) "loop bound forced to 40" 40 (global_i32 m "counter")

let test_listing17 () =
  let prog = load_listing "listing17.cpp" in
  check_flagged "listing17" prog;
  let m = Interp.load ~config:Config.none prog in
  Machine.set_input ~ints:[ Machine.function_addr m "grant_admin" ] m;
  match (Vm.run m (Vm.load prog) ~entry:"main").O.status with
  | O.Arc_injection { via = O.Function_pointer; symbol = "grant_admin"; _ } -> ()
  | st -> Alcotest.failf "expected fn-ptr hijack, got %a" O.pp_status st

let test_listing19 () =
  let prog = load_listing "listing19.cpp" in
  check_flagged "listing19" prog;
  let m = Interp.load ~config:Config.none prog in
  let sys = Machine.function_addr m "system" in
  let word = String.init 4 (fun k -> Char.chr ((sys lsr (8 * k)) land 0xff)) in
  let payload = String.concat "" (List.init 20 (fun _ -> word)) in
  Machine.set_input ~ints:[ 5; 10 ] ~strings:[ payload ] m;
  match (Vm.run m (Vm.load prog) ~entry:"main").O.status with
  | O.Arc_injection { via = O.Return_address; symbol = "system"; _ } -> ()
  | st -> Alcotest.failf "expected two-step hijack, got %a" O.pp_status st

let test_listing21 () =
  let prog = load_listing "listing21.cpp" in
  check_flagged "listing21" prog;
  let o, _ = run ~strings:[ "bob" ] prog in
  Alcotest.(check bool) "secret leaked" true
    (List.exists
       (fun s ->
         let needle = "SECRET-TOKEN-1337" in
         let nl = String.length needle and sl = String.length s in
         let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
         go 0)
       o.O.output)

let test_listing22 () =
  let prog = load_listing "listing22.cpp" in
  check_flagged "listing22" prog;
  let o, _ = run prog in
  let ssn_bytes =
    String.init 4 (fun k -> Char.chr ((123456789 lsr (8 * k)) land 0xff))
  in
  Alcotest.(check bool) "ssn bytes in serialized output" true
    (List.exists
       (fun s ->
         let nl = String.length ssn_bytes and sl = String.length s in
         let rec go i = i + nl <= sl && (String.sub s i nl = ssn_bytes || go (i + 1)) in
         go 0)
       o.O.output)

let test_listing23 () =
  let prog = load_listing "listing23.cpp" in
  check_flagged "listing23" prog;
  let o, m = run ~ints:[ 100 ] prog in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  Alcotest.(check int) "16 bytes leaked per iteration" 1600
    (Machine.leaked_bytes m)

let test_listing12 () =
  let prog = load_listing "listing12.cpp" in
  check_flagged "listing12" prog;
  let o, _ = run ~ints:[ 0x10; 0x20; 0x58585858 ] prog in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  Alcotest.(check bool) "heap neighbour rewritten" true
    (List.exists (fun out -> out = "XXXXefghijklmno") o.O.output)

let test_listing16 () =
  let prog = load_listing "listing16.cpp" in
  check_flagged "listing16" prog;
  let o, m = run ~ints:[ 0x41414141; 0x42424242 ] prog in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  let bits =
    Vmem.read_u32 (Machine.mem m) (Machine.global_addr_exn m "observed_gpa")
  in
  Alcotest.(check int) "first.gpa low word replaced" 0x41414141 bits

let test_listing18 () =
  let prog = load_listing "listing18.cpp" in
  check_flagged "listing18" prog;
  let m = Interp.load ~config:Config.none prog in
  Machine.set_input
    ~ints:[ Machine.global_addr_exn m "authenticated" ]
    ~strings:[ "\001\001\001" ]
    m;
  let o = Vm.run m (Vm.load prog) ~entry:"main" in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  Alcotest.(check bool) "flag set through hijacked pointer" true
    (global_i32 m "authenticated" <> 0)

let test_listing20 () =
  let prog = load_listing "listing20.cpp" in
  check_flagged "listing20" prog;
  let filler = String.make 64 'u' in
  let word w = String.init 4 (fun k -> Char.chr ((w lsr (8 * k)) land 0xff)) in
  let o, m =
    run ~ints:[ 5; 9 ] ~strings:[ filler ^ word 0x31313131 ^ word 0x39393939 ] prog
  in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "run failed: %a" O.pp_status st);
  Alcotest.(check int) "n_staff rewritten" 0x31313131
    (Vmem.read_u32 (Machine.mem m) (Machine.global_addr_exn m "n_staff"))

let test_all_files_roundtrip_through_printer () =
  List.iter
    (fun name ->
      let prog = load_listing name in
      let printed = Pna_minicpp.Cpp_print.program_to_string prog in
      let reparsed = P.program printed in
      Alcotest.(check string)
        (name ^ " survives print/parse")
        printed
        (Pna_minicpp.Cpp_print.program_to_string reparsed))
    [
      "listing11.cpp"; "listing12.cpp"; "listing13.cpp"; "listing15.cpp";
      "listing16.cpp"; "listing17.cpp"; "listing18.cpp"; "listing19.cpp";
      "listing20.cpp"; "listing21.cpp"; "listing22.cpp"; "listing23.cpp";
    ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "listings",
    [
      t "listing 11: data/bss overflow" test_listing11;
      t "listing 12: heap overflow" test_listing12;
      t "listing 16: member overwrite" test_listing16;
      t "listing 18: variable pointer subterfuge" test_listing18;
      t "listing 20: two-step bss array smash" test_listing20;
      t "listing 13: smash detected, bypass not" test_listing13;
      t "listing 15: loop bound overwritten" test_listing15;
      t "listing 17: function pointer subterfuge" test_listing17;
      t "listing 19: two-step array smash" test_listing19;
      t "listing 21: password file leaks" test_listing21;
      t "listing 22: SSN survives reuse" test_listing22;
      t "listing 23: placement-delete leak" test_listing23;
      t "all files survive print/parse" test_all_files_roundtrip_through_printer;
    ] )
