(* Tests for the MiniC++ interpreter: expression/statement semantics,
   calls, constructors, virtual dispatch, builtins, placement new, taint. *)

open Pna_minicpp.Dsl
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Outcome = Pna_minicpp.Outcome
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module Schema = Pna_attacks.Schema

(* run a main body; return (outcome, machine) *)
let run_m ?(classes = []) ?(globals = []) ?(funcs = []) ?(ints = [])
    ?(strings = []) body =
  let prog = program ~classes ~globals (funcs @ [ func "main" body ]) in
  let m = Interp.load ~config:Config.none prog in
  Machine.set_input ~ints ~strings m;
  (Vm.run m (Vm.load prog) ~entry:"main", m)

let run ?classes ?globals ?funcs ?ints ?strings body =
  fst (run_m ?classes ?globals ?funcs ?ints ?strings body)

(* run and return the value of global "r" (declared int) *)
let result ?classes ?(globals = []) ?funcs ?ints ?strings body =
  let o, m =
    run_m ?classes ~globals:(global "r" int :: globals) ?funcs ?ints ?strings
      body
  in
  match o.Outcome.status with
  | Outcome.Exited _ ->
    Pna_vmem.Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "r")
  | st -> Alcotest.failf "did not exit normally: %a" Outcome.pp_status st

let check_exit ?(code = 0) name (o : Outcome.t) =
  match o.Outcome.status with
  | Outcome.Exited c -> Alcotest.(check int) name code c
  | st -> Alcotest.failf "%s: %a" name Outcome.pp_status st

let test_arith () =
  Alcotest.(check int) "arith" 17
    (result [ set (v "r") ((i 3 *: i 4) +: (i 10 /: i 2)) ]);
  Alcotest.(check int) "mod" 2 (result [ set (v "r") (i 17 %: i 5) ]);
  Alcotest.(check int) "neg" (-5) (result [ set (v "r") (neg (i 5)) ])

let test_div_by_zero_crashes () =
  let o = run [ set (v "r") (i 1 /: i 0) ] ~globals:[ global "r" int ] in
  match o.Outcome.status with
  | Outcome.Crashed msg ->
    Alcotest.(check bool) "sigfpe" true
      (String.length msg >= 6 && String.sub msg 0 6 = "SIGFPE")
  | st -> Alcotest.failf "expected crash, got %a" Outcome.pp_status st

let test_comparisons () =
  Alcotest.(check int) "lt" 1 (result [ set (v "r") (i 2 <: i 3) ]);
  Alcotest.(check int) "ge" 0 (result [ set (v "r") (i 2 >=: i 3) ]);
  Alcotest.(check int) "eq" 1 (result [ set (v "r") (i 7 ==: i 7) ])

let test_signed_wraparound () =
  (* ints are 32-bit: INT_MAX + 1 wraps negative *)
  Alcotest.(check int) "wrap" (-2147483648)
    (result [ set (v "r") (i 2147483647 +: i 1) ])

let test_unsigned_semantics () =
  (* the paper's §1 motivation: a decremented unsigned looks huge *)
  Alcotest.(check int) "unsigned -1 is big" 1
    (result
       [
         decli "n" uint (i 0);
         set (v "n") (v "n" -: i 1);
         set (v "r") (v "n" >: i 1000000);
       ])

let test_short_circuit () =
  (* the rhs would crash; && must not evaluate it *)
  Alcotest.(check int) "and shortcuts" 0
    (result [ set (v "r") (i 0 &&: (i 1 /: i 0)) ]);
  Alcotest.(check int) "or shortcuts" 1
    (result [ set (v "r") (i 1 ||: (i 1 /: i 0)) ])

let test_logical_strict_eval_unreachable () =
  (* && and || are lowered to short-circuit control flow before operand
     evaluation; the strict-evaluation arm of the binop table is a
     classified [Internal_error], not an untyped assert. Pin it
     unreachable from every catalogue listing — both twins — and from
     logical operators in non-condition expression positions. *)
  let module Driver = Pna_attacks.Driver in
  let module Catalog = Pna_attacks.Catalog in
  let no_internal id (o : Outcome.t) =
    match o.Outcome.status with
    | Outcome.Internal_error msg ->
      Alcotest.failf "%s reached the simulator-bug arm: %s" id msg
    | _ -> ()
  in
  List.iter
    (fun (a : Catalog.t) ->
      no_internal a.Catalog.id (Driver.run a).Driver.outcome;
      match Driver.run_hardened a with
      | Some (o, _, _) -> no_internal (a.Catalog.id ^ "+hardened") o
      | None -> ())
    Pna_attacks.All.attacks;
  Alcotest.(check int) "&& as a call argument" 1
    (result
       ~funcs:[ func "id" ~params:[ ("x", int) ] ~ret:int [ ret (v "x") ] ]
       [ set (v "r") (call "id" [ i 1 &&: i 2 ]) ]);
  Alcotest.(check int) "|| nested under arithmetic" 3
    (result [ set (v "r") ((i 0 ||: i 1) +: (i 1 &&: i 2) +: i 1) ])

let test_preinc () =
  Alcotest.(check int) "++x twice" 2
    (result [ decli "x" int (i 0); expr (incr (v "x")); set (v "r") (incr (v "x")) ])

let test_while_loop () =
  Alcotest.(check int) "sum 1..10" 55
    (result
       [
         decli "s" int (i 0);
         decli "j" int (i 0);
         while_ (incr (v "j") <=: i 10) [ set (v "s") (v "s" +: v "j") ];
         set (v "r") (v "s");
       ])

let test_for_loop () =
  Alcotest.(check int) "for" 10
    (result
       [
         for_ (decli "j" int (i 0)) (v "j" <: i 5) (set (v "j") (v "j" +: i 1))
           [ set (v "r") (v "r" +: i 2) ];
       ])

let test_if_else () =
  Alcotest.(check int) "else branch" 9
    (result [ if_ (i 0) [ set (v "r") (i 1) ] [ set (v "r") (i 9) ] ])

let test_function_call_and_return () =
  let funcs = [ func "twice" ~params:[ ("x", int) ] ~ret:int [ ret (v "x" *: i 2) ] ] in
  Alcotest.(check int) "call" 14 (result ~funcs [ set (v "r") (call "twice" [ i 7 ]) ])

let test_recursion () =
  let funcs =
    [
      func "fact" ~params:[ ("n", int) ] ~ret:int
        [
          if_ (v "n" <=: i 1) [ ret (i 1) ]
            [ ret (v "n" *: call "fact" [ v "n" -: i 1 ]) ];
        ];
    ]
  in
  Alcotest.(check int) "6!" 720 (result ~funcs [ set (v "r") (call "fact" [ i 6 ]) ])

let test_runaway_recursion_crashes () =
  let funcs = [ func "f" [ expr (call "f" []) ] ] in
  let o = run ~funcs [ expr (call "f" []) ] in
  match o.Outcome.status with
  | Outcome.Crashed _ -> ()
  | st -> Alcotest.failf "expected crash, got %a" Outcome.pp_status st

let test_main_return_code () =
  check_exit ~code:42 "exit code" (run [ ret (i 42) ])

let test_exit_builtin () =
  check_exit ~code:3 "exit()" (run [ expr (call "exit" [ i 3 ]); ret (i 0) ])

let test_timeout () =
  let prog = program [ func "main" [ while_ (i 1) [] ] ] in
  let m = Interp.load ~config:Config.none prog in
  let o = Vm.run ~max_steps:1000 m (Vm.load prog) ~entry:"main" in
  match o.Outcome.status with
  | Outcome.Timeout _ -> ()
  | st -> Alcotest.failf "expected timeout, got %a" Outcome.pp_status st

let test_pointers () =
  Alcotest.(check int) "deref(&x)" 5
    (result
       [
         decli "x" int (i 5);
         decli "p" (ptr int) (addr (v "x"));
         set (v "r") (deref (v "p"));
       ]);
  Alcotest.(check int) "write through pointer" 9
    (result
       [
         decli "x" int (i 5);
         decli "p" (ptr int) (addr (v "x"));
         set (deref (v "p")) (i 9);
         set (v "r") (v "x");
       ])

let test_pointer_arith () =
  Alcotest.(check int) "p+2 over ints" 30
    (result
       [
         decl "a" (int_arr 4);
         set (idx (v "a") (i 2)) (i 30);
         decli "p" (ptr int) (v "a");
         set (v "r") (deref (v "p" +: i 2));
       ])

let test_array_index_unchecked () =
  (* a[4] on int a[4]: no bounds check — lands on the neighbouring local *)
  Alcotest.(check int) "no bounds check" 77
    (result
       [
         decli "victim" int (i 0);
         decl "a" (int_arr 4);
         set (idx (v "a") (i 4)) (i 77);
         set (v "r") (v "victim");
       ])

let test_sizeof () =
  Alcotest.(check int) "sizeof(GradStudent)" 32
    (result ~classes:Schema.base_classes
       [ set (v "r") (sizeof (cls "GradStudent")) ])

let test_cast_truncates () =
  Alcotest.(check int) "char cast" 0x44
    (result
       [
         decli "x" int (i 0x1144);
         decli "c" char (cast char (v "x"));
         set (v "r") (v "c");
       ])

let test_double_field () =
  let o, m =
    run_m ~classes:Schema.base_classes
      ~funcs:Schema.base_funcs
      ~globals:[ global "s" (cls "Student"); global "out" double ]
      [
        expr (pnew (addr (v "s")) (cls "Student") [ fl 3.25; i 2009; i 1 ]);
        set (v "out") (fld (v "s") "gpa");
      ]
  in
  check_exit "ran" o;
  Alcotest.(check (float 0.0)) "double roundtrip" 3.25
    (Pna_vmem.Vmem.read_f64 (Machine.mem m) (Machine.global_addr_exn m "out"))

let test_ctor_runs () =
  let o, m =
    run_m ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      ~globals:[ global "out" int ]
      [
        obj "s" "Student" [ fl 4.0; i 2011; i 2 ];
        set (v "out") (fld (v "s") "year");
      ]
  in
  check_exit "ran" o;
  Alcotest.(check int) "ctor set year" 2011
    (Pna_vmem.Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "out"))

let test_copy_ctor_shallow () =
  let o, m =
    run_m ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      ~globals:[ global "out" int ]
      [
        decli "a" (ptr (cls "GradStudent")) (new_ (cls "GradStudent") []);
        expr (mcall (v "a") "setSSN" [ i 111; i 222; i 333 ]);
        decli "b" (ptr (cls "GradStudent")) (new_ (cls "GradStudent") [ v "a" ]);
        set (v "out") (idx (arrow (v "b") "ssn") (i 2));
      ]
  in
  check_exit "ran" o;
  Alcotest.(check int) "memberwise copy" 333
    (Pna_vmem.Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "out"))

let test_virtual_dispatch_derived () =
  (* a GradStudentV seen through a StudentV* dispatches to the override *)
  let funcs =
    Schema.virtual_funcs
    @ [
        func "probe" ~params:[ ("s", ptr (cls "StudentV")) ] ~ret:int
          [ ret (mcall (v "s") "getInfo" []) ];
      ]
  in
  (* getInfo impls return 1; make the derived one return 2 to observe *)
  let funcs =
    List.map
      (fun f ->
        if f.Pna_minicpp.Ast.fn_name = "GradStudentV::getInfo" then
          func "GradStudentV::getInfo" ~params:[ ("this", ptr void) ] ~ret:int
            [ ret (i 2) ]
        else f)
      funcs
  in
  Alcotest.(check int) "derived impl ran" 2
    (result ~classes:Schema.virtual_classes ~funcs
       [
         decli "g" (ptr (cls "GradStudentV")) (new_ (cls "GradStudentV") []);
         set (v "r") (call "probe" [ v "g" ]);
       ])

let test_strlen_strcpy () =
  Alcotest.(check int) "strlen" 5
    (result [ set (v "r") (call "strlen" [ str "hello" ]) ]);
  let o, m =
    run_m
      ~globals:[ global "buf" (char_arr 16) ]
      [ expr (call "strcpy" [ v "buf"; str "hi" ]) ]
  in
  check_exit "ran" o;
  Alcotest.(check string) "copied with NUL" "hi\000"
    (Pna_vmem.Vmem.read_bytes (Machine.mem m) (Machine.global_addr_exn m "buf") 3)

let test_strncpy_pads () =
  let o, m =
    run_m
      ~globals:[ global "buf" (char_arr 8) ]
      [
        expr (call "memset" [ v "buf"; i 0x2a; i 8 ]);
        expr (call "strncpy" [ v "buf"; str "ab"; i 6 ]);
      ]
  in
  check_exit "ran" o;
  Alcotest.(check string) "NUL padding to n, tail untouched" "ab\000\000\000\000**"
    (Pna_vmem.Vmem.read_bytes (Machine.mem m) (Machine.global_addr_exn m "buf") 8)

let test_memcpy_memset () =
  let o, m =
    run_m
      ~globals:[ global "a" (char_arr 8); global "b" (char_arr 8) ]
      [
        expr (call "memset" [ v "a"; i 0x41; i 8 ]);
        expr (call "memcpy" [ v "b"; v "a"; i 4 ]);
      ]
  in
  check_exit "ran" o;
  Alcotest.(check string) "memcpy" "AAAA\000\000\000\000"
    (Pna_vmem.Vmem.read_bytes (Machine.mem m) (Machine.global_addr_exn m "b") 8)

let test_cout () =
  let o = run [ cout [ str "x="; i 42 ] ] in
  Alcotest.(check (list string)) "output" [ "x="; "42" ] o.Outcome.output

let test_cin_taints () =
  let o, m =
    run_m ~globals:[ global "g" int ] ~ints:[ 7 ] [ set (v "g") cin ]
  in
  check_exit "ran" o;
  let addr = Machine.global_addr_exn m "g" in
  Alcotest.(check int) "value" 7 (Pna_vmem.Vmem.read_i32 (Machine.mem m) addr);
  Alcotest.(check bool) "tainted" true
    (Pna_vmem.Vmem.range_tainted (Machine.mem m) addr 4)

let test_taint_through_arith () =
  let o, m =
    run_m ~globals:[ global "g" int ] ~ints:[ 5 ]
      [ decli "x" int cin; set (v "g") ((v "x" *: i 4) +: i 1) ]
  in
  check_exit "ran" o;
  Alcotest.(check bool) "derived value tainted" true
    (Pna_vmem.Vmem.range_tainted (Machine.mem m)
       (Machine.global_addr_exn m "g") 4)

let test_heap_new_delete () =
  let o, m =
    run_m ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      [
        decli "p" (ptr (cls "GradStudent")) (new_ (cls "GradStudent") []);
        delete (v "p");
      ]
  in
  check_exit "ran" o;
  Alcotest.(check int) "all freed" 0 (Machine.heap_stats m).Pna_machine.Heap.in_use

let test_new_array_negative_crashes () =
  let o = run ~ints:[ -3 ] [ decli "p" char_p (new_arr char cin) ] in
  match o.Outcome.status with
  | Outcome.Crashed _ -> ()
  | st -> Alcotest.failf "expected bad_alloc crash, got %a" Outcome.pp_status st

let test_placement_returns_target () =
  let o, m =
    run_m ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      ~globals:[ global "s" (cls "Student"); global "out" (ptr void) ]
      [
        decli "p" (ptr (cls "Student")) (pnew (addr (v "s")) (cls "Student") []);
        set (v "out") (v "p");
      ]
  in
  check_exit "ran" o;
  Alcotest.(check int) "placement returns its address"
    (Machine.global_addr_exn m "s")
    (Pna_vmem.Vmem.read_u32 (Machine.mem m) (Machine.global_addr_exn m "out"))

let test_placement_no_bounds_check () =
  (* the defining property: a 32-byte object placed in 16 bytes, silently *)
  let o, _ =
    run_m ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      ~globals:[ global "s" (cls "Student") ]
      [ expr (pnew (addr (v "s")) (cls "GradStudent") []) ]
  in
  check_exit "no complaint" o

let test_null_placement_crashes () =
  let o =
    run ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      ~globals:[ global "p" (ptr (cls "Student")) ]
      [ expr (pnew (v "p") (cls "Student") []) ]
  in
  match o.Outcome.status with
  | Outcome.Crashed _ -> ()
  | st -> Alcotest.failf "expected crash, got %a" Outcome.pp_status st

let test_class_assignment_copies_bytes () =
  let o, m =
    run_m ~classes:Schema.base_classes ~funcs:Schema.base_funcs
      ~globals:[ global "a" (cls "Student"); global "b" (cls "Student"); global "out" int ]
      [
        expr (pnew (addr (v "a")) (cls "Student") [ fl 2.5; i 2001; i 1 ]);
        set (v "b") (v "a");
        set (v "out") (fld (v "b") "year");
      ]
  in
  check_exit "ran" o;
  Alcotest.(check int) "copied" 2001
    (Pna_vmem.Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "out"))

let test_global_initializers () =
  Alcotest.(check int) "Ival global" 8
    (result ~globals:[ global "k" ~init:(Ival 8) int ] [ set (v "r") (v "k") ])

let test_string_global_initializer () =
  let o, m =
    run_m ~globals:[ global "s" ~init:(Sval "pw:x") (char_arr 8) ] []
  in
  check_exit "ran" o;
  Alcotest.(check string) "initialized" "pw:x"
    (Pna_vmem.Vmem.read_bytes (Machine.mem m) (Machine.global_addr_exn m "s") 4)

let test_method_static_dispatch () =
  Alcotest.(check int) "plain method via base-class search" 99
    (result ~classes:Schema.base_classes
       ~funcs:
         (Schema.base_funcs
         @ [
             func "probe" ~params:[ ("g", ptr (cls "GradStudent")) ] ~ret:int
               [
                 expr (mcall (v "g") "setSSN" [ i 99; i 0; i 0 ]);
                 ret (idx (arrow (v "g") "ssn") (i 0));
               ];
           ])
       [
         decli "g" (ptr (cls "GradStudent")) (new_ (cls "GradStudent") []);
         set (v "r") (call "probe" [ v "g" ]);
       ])

(* ---- differential testing: random expressions vs a reference ---- *)

(* random arithmetic over Int literals; division avoided by construction *)
let gen_arith =
  let open QCheck.Gen in
  sized_size (int_range 0 5) @@ fix (fun self n ->
      if n = 0 then map (fun v -> Int v) (int_range (-1000) 1000)
      else
        frequency
          [
            (1, map (fun v -> Int v) (int_range (-1000) 1000));
            ( 4,
              map3
                (fun op a b -> Bin (op, a, b))
                (oneofl [ Add; Sub; Mul ])
                (self (n / 2))
                (self (n / 2)) );
            (1, map (fun e -> Un (Neg, e)) (self (n - 1)));
            ( 2,
              map3
                (fun c a b -> Bin ((if c then Lt else Gt), a, b))
                bool (self (n / 2)) (self (n / 2)) );
          ])

(* reference semantics: 32-bit wrapping signed arithmetic *)
let rec ref_eval (e : Pna_minicpp.Ast.expr) =
  let wrap v = Pna_vmem.Vmem.to_signed32 (v land 0xffffffff) in
  match e with
  | Int v -> wrap v
  | Un (Neg, a) -> wrap (-ref_eval a)
  | Bin (Add, a, b) -> wrap (ref_eval a + ref_eval b)
  | Bin (Sub, a, b) -> wrap (ref_eval a - ref_eval b)
  | Bin (Mul, a, b) -> wrap (ref_eval a * ref_eval b)
  | Bin (Lt, a, b) -> if ref_eval a < ref_eval b then 1 else 0
  | Bin (Gt, a, b) -> if ref_eval a > ref_eval b then 1 else 0
  | _ -> assert false

let rec expr_print (e : Pna_minicpp.Ast.expr) =
  match e with
  | Int v -> string_of_int v
  | Un (Neg, a) -> "-(" ^ expr_print a ^ ")"
  | Bin (op, a, b) ->
    let o =
      match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*" | Lt -> "<" | Gt -> ">"
      | _ -> "?"
    in
    "(" ^ expr_print a ^ o ^ expr_print b ^ ")"
  | _ -> "?"

let prop_interp_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"interp: arithmetic agrees with the 32-bit reference"
    (QCheck.make ~print:expr_print gen_arith)
    (fun e ->
      result [ set (v "r") e ] = ref_eval e)

let prop_expressions_deterministic =
  QCheck.Test.make ~count:100 ~name:"interp: evaluation is deterministic"
    (QCheck.make ~print:expr_print gen_arith)
    (fun e -> result [ set (v "r") e ] = result [ set (v "r") e ])

(* Every constructor's rendered status maps back to its key, so a reply
   that carries only the rendered form is counted under the same key. *)
let test_status_key_of_rendered () =
  let statuses =
    Outcome.
      [
        Exited 0;
        Arc_injection { via = Return_address; symbol = "system"; tainted = true };
        Code_injection { via = Vtable; target = 0x0804_8000; tainted = false };
        Crashed "segfault";
        Stack_smashing_detected;
        Defense_blocked "shadow stack";
        Timeout { steps = 10 };
        Out_of_memory;
        Internal_error "bug";
        Recovered { attempts = 2; final_attempt = 2; exit_code = 0 };
      ]
  in
  List.iter
    (fun st ->
      let rendered = Fmt.str "%a" Outcome.pp_status st in
      Alcotest.(check (option string)) rendered
        (Some (Outcome.status_key st))
        (Outcome.key_of_rendered rendered))
    statuses;
  Alcotest.(check (list string)) "one key per constructor"
    (List.sort_uniq compare (List.map Outcome.status_key statuses))
    (List.sort compare Outcome.status_keys);
  Alcotest.(check (option string)) "foreign string" None
    (Outcome.key_of_rendered "no such status")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "interp",
    [
      t "status keys survive rendering" test_status_key_of_rendered;
      t "arithmetic" test_arith;
      t "division by zero crashes" test_div_by_zero_crashes;
      t "comparisons" test_comparisons;
      t "32-bit signed wraparound" test_signed_wraparound;
      t "unsigned underflow is huge" test_unsigned_semantics;
      t "&&/|| short-circuit" test_short_circuit;
      t "&&/|| strict-eval arm unreachable" test_logical_strict_eval_unreachable;
      t "pre-increment" test_preinc;
      t "while loop" test_while_loop;
      t "for loop" test_for_loop;
      t "if/else" test_if_else;
      t "function call and return" test_function_call_and_return;
      t "recursion" test_recursion;
      t "runaway recursion crashes" test_runaway_recursion_crashes;
      t "main return code" test_main_return_code;
      t "exit builtin" test_exit_builtin;
      t "step budget timeout" test_timeout;
      t "pointers: deref read/write" test_pointers;
      t "pointer arithmetic scales" test_pointer_arith;
      t "array indexing unchecked" test_array_index_unchecked;
      t "sizeof" test_sizeof;
      t "cast truncates" test_cast_truncates;
      t "double fields" test_double_field;
      t "constructors run" test_ctor_runs;
      t "implicit copy constructor is shallow" test_copy_ctor_shallow;
      t "virtual dispatch picks override" test_virtual_dispatch_derived;
      t "strlen/strcpy" test_strlen_strcpy;
      t "strncpy pads with NULs" test_strncpy_pads;
      t "memcpy/memset" test_memcpy_memset;
      t "cout" test_cout;
      t "cin taints values" test_cin_taints;
      t "taint flows through arithmetic" test_taint_through_arith;
      t "heap new/delete" test_heap_new_delete;
      t "new[] with negative size crashes" test_new_array_negative_crashes;
      t "placement returns target address" test_placement_returns_target;
      t "placement new performs no bounds check" test_placement_no_bounds_check;
      t "placement at null crashes" test_null_placement_crashes;
      t "class assignment copies bytes" test_class_assignment_copies_bytes;
      t "global int initializers" test_global_initializers;
      t "global string initializers" test_string_global_initializer;
      t "non-virtual methods dispatch statically" test_method_static_dispatch;
      QCheck_alcotest.to_alcotest prop_interp_matches_reference;
      QCheck_alcotest.to_alcotest prop_expressions_deterministic;
    ] )
