(* Negative-path tests: the toolchain must fail loudly and precisely on
   malformed source, ill-typed programs and hostile inputs — never with an
   unhandled exception. *)

open Pna_minicpp.Dsl
module P = Pna_minicpp.Parser
module L = Pna_minicpp.Lexer
module Vm = Pna_minicpp.Vm
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome

let parse_fails src =
  match P.program src with
  | _ -> Alcotest.failf "accepted: %s" src
  | exception P.Error _ -> ()
  | exception L.Error _ -> ()

let test_parse_rejects () =
  List.iter parse_fails
    [
      "int x"                                  (* missing semicolon *);
      "void f() { if x { } }"                  (* missing parens *);
      "void f() { int 3x; }"                   (* bad identifier *);
      "class A { int x; }"                     (* missing ; after class *);
      "void f() { return 1 }"                  (* missing ; *);
      "void f() { x = ; }"                     (* empty rhs *);
      "int a[; "                               (* bad extent *);
      "void f() { delete[Nope] p; }"           (* unknown class in delete *);
      "int x; int x;"                          (* duplicate global *);
      "class A {}; class A {};"                (* duplicate class *);
      "void f() {} void f() {}"                (* duplicate function *);
      "void f() { \"unterminated }"            (* unterminated string *);
      "void f() { /* unterminated }"           (* unterminated comment *);
      "void f() { x @ y; }"                    (* unknown character *);
    ]

let test_lexer_positions () =
  match P.program "int a;\nint b;\nbroken broken;\n" with
  | _ -> Alcotest.fail "accepted"
  | exception P.Error { line; _ } ->
    Alcotest.(check bool) "error on line 3" true (line >= 3)

(* runtime type errors surface as crashes, not exceptions *)
let crashes body =
  let prog = program ~globals:[ global "g" int ] [ func "main" body ] in
  match (Vm.execute ~config:Config.none prog).O.status with
  | O.Crashed _ -> ()
  | st ->
    Alcotest.failf "expected a crash, got %a" O.pp_status st

let test_runtime_type_errors () =
  crashes [ set (v "nosuch") (i 1) ] (* unbound variable *);
  crashes [ expr (call "nosuch" []) ] (* undefined function *);
  crashes [ expr (deref (v "g")) ] (* deref of non-pointer *);
  crashes [ set (fld (v "g") "f") (i 1) ] (* field of non-class *)

let test_wild_pointer_reads_fault () =
  crashes [ decli "p" (ptr int) (cast (ptr int) (i 0x12345678));
            set (v "g") (deref (v "p")) ]

let test_entry_point_missing () =
  let prog = program [ func "not_main" [] ] in
  match (Vm.execute ~config:Config.none prog).O.status with
  | O.Crashed _ -> ()
  | st -> Alcotest.failf "expected crash, got %a" O.pp_status st

let test_hostile_datagrams_never_raise () =
  (* random bytes at the deserializing service: any outcome is fine as
     long as it is an Outcome, not an exception *)
  let prog =
    program ~classes:Pna_serial.Victim.classes
      ~globals:(Pna_serial.Victim.pool_global :: Pna_serial.Victim.state_globals)
      [
        Pna_serial.Victim.deserialize_func ~checked:false;
        func "main"
          [
            decl "dgram" (char_arr 128);
            decli "len" int (call "recv" [ v "dgram"; i 128 ]);
            when_ (v "len" >: i 0) [ expr (call "deserialize" [ v "dgram" ]) ];
            ret (i 0);
          ];
      ]
  in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let len = 1 + Random.State.int rng 64 in
    let payload =
      String.init len (fun _ -> Char.chr (Random.State.int rng 256))
    in
    ignore (Vm.execute ~config:Config.none ~input_strings:[ payload ] prog)
  done

let test_fuzzed_source_never_raises_unexpectedly () =
  (* byte-mangled versions of a real listing: parser must answer with
     Error or a program, nothing else *)
  let base =
    Pna_minicpp.Cpp_print.program_to_string
      Pna_attacks.L13_stack_ret.attack.Pna_attacks.Catalog.program
  in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 300 do
    let b = Bytes.of_string base in
    for _ = 0 to Random.State.int rng 4 do
      Bytes.set b
        (Random.State.int rng (Bytes.length b))
        (Char.chr (32 + Random.State.int rng 95))
    done;
    match P.program (Bytes.to_string b) with
    | _ -> ()
    | exception P.Error _ -> ()
    | exception L.Error _ -> ()
  done

(* ---- hostile-input-reachable resource exhaustion: classified, never an
   exception (each case regression-tests one converted failure site) ---- *)

(* Vmem.blit used to materialize the whole copy as a host array: an
   attacker-sized memcpy count meant a multi-gigabyte allocation before
   any fault check. Now it streams and faults at the segment boundary. *)
let test_huge_memcpy_crashes_cleanly () =
  crashes
    [
      decl "buf" (char_arr 16);
      expr (call "memcpy" [ v "buf"; v "buf"; i 0x7fffffff ]);
    ]

(* Vmem.read_bytes had the same shape via the [store] builtin. *)
let test_huge_store_crashes_cleanly () =
  crashes
    [
      decl "buf" (char_arr 16);
      expr (call "store" [ v "buf"; i 0x7fffffff ]);
    ]

(* Machine.intern_string used to [failwith "rodata full"]; tainted input
   strings get fresh rodata copies, so hostile input can exhaust the
   64 KiB segment. It is now a Security_stop -> Out_of_memory outcome. *)
let test_rodata_exhaustion_is_oom () =
  let prog =
    program
      ~globals:[ global "p" (ptr char) ]
      [ func "main" [ while_ (i 1) [ set (v "p") cin_str ] ] ]
  in
  let strings = List.init 80 (fun _ -> String.make 1200 'a') in
  let o =
    Vm.execute ~config:Config.none ~max_steps:10_000_000
      ~input_strings:strings prog
  in
  match o.O.status with
  | O.Out_of_memory -> ()
  | st -> Alcotest.failf "expected OOM, got %a" O.pp_status st

(* loader-time [failwith] ("data segment full", "text full") used to
   escape execution as a raw exception; now segment exhaustion is
   the same classified out-of-memory outcome the rodata path produces *)
let test_oversized_global_is_classified () =
  let prog =
    program
      ~globals:[ global "g" (char_arr 200_000) ]
      [ func "main" [ ret (i 0) ] ]
  in
  match (Vm.execute ~config:Config.none prog).O.status with
  | O.Out_of_memory -> ()
  | st -> Alcotest.failf "expected OOM, got %a" O.pp_status st

let test_text_exhaustion_is_classified () =
  let prog =
    program
      (List.init 3_000 (fun k -> func (Fmt.str "f%d" k) [ ret (i 0) ])
      @ [ func "main" [ ret (i 0) ] ])
  in
  match (Vm.execute ~config:Config.none prog).O.status with
  | O.Out_of_memory -> ()
  | st -> Alcotest.failf "expected OOM, got %a" O.pp_status st

let test_interp_budget_is_respected () =
  let prog = program [ func "main" [ while_ (i 1) [] ] ] in
  let o =
    Vm.execute ~config:Config.none ~max_steps:500 prog
  in
  Alcotest.(check bool) "stopped within budget + 1" true (o.O.steps <= 501)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "robustness",
    [
      t "parser rejects malformed programs" test_parse_rejects;
      t "errors carry useful line numbers" test_lexer_positions;
      t "runtime type errors crash cleanly" test_runtime_type_errors;
      t "wild pointer reads fault" test_wild_pointer_reads_fault;
      t "missing entry point" test_entry_point_missing;
      t "hostile datagrams never raise" test_hostile_datagrams_never_raise;
      t "mangled source never raises unexpectedly"
        test_fuzzed_source_never_raises_unexpectedly;
      t "interpreter budget respected" test_interp_budget_is_respected;
      t "huge memcpy crashes cleanly" test_huge_memcpy_crashes_cleanly;
      t "huge store crashes cleanly" test_huge_store_crashes_cleanly;
      t "rodata exhaustion is OOM" test_rodata_exhaustion_is_oom;
      t "oversized global load is classified" test_oversized_global_is_classified;
      t "text exhaustion is classified" test_text_exhaustion_is_classified;
    ] )
