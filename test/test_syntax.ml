(* Tests for the C++ concrete syntax: lexer, parser, pretty-printer.
   The headline properties: every catalogue program survives
   print -> parse -> print byte-identically, and the parsed program
   behaves identically under the interpreter. *)

module Ast = Pna_minicpp.Ast
module CP = Pna_minicpp.Cpp_print
module P = Pna_minicpp.Parser
module L = Pna_minicpp.Lexer
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome
module C = Pna_attacks.Catalog

(* ---- lexer ---- *)

let toks src = List.map fst (L.tokenize src)

let test_lex_basic () =
  Alcotest.(check int) "token count" 6 (List.length (toks "int x = 42;"));
  match toks "x->f(0x10)" with
  | [ L.IDENT "x"; L.PUNCT "->"; L.IDENT "f"; L.PUNCT "("; L.INT 16; L.PUNCT ")"; L.EOF ] ->
    ()
  | ts ->
    Alcotest.failf "bad tokens: %a" Fmt.(list ~sep:sp L.pp_token) ts

let test_lex_comments () =
  match toks "a // line\n /* block\n comment */ b" with
  | [ L.IDENT "a"; L.IDENT "b"; L.EOF ] -> ()
  | ts -> Alcotest.failf "comments not skipped: %a" Fmt.(list ~sep:sp L.pp_token) ts

let test_lex_floats_and_strings () =
  match toks "3.9 \"a\\x41b\\n\"" with
  | [ L.FLOAT f; L.STRING s; L.EOF ] ->
    Alcotest.(check (float 0.0)) "float" 3.9 f;
    Alcotest.(check string) "escapes" "aAb\n" s
  | ts -> Alcotest.failf "bad: %a" Fmt.(list ~sep:sp L.pp_token) ts

let test_lex_longest_match () =
  match toks "a<<b <= c << d" with
  | [ L.IDENT "a"; L.PUNCT "<<"; L.IDENT "b"; L.PUNCT "<="; L.IDENT "c";
      L.PUNCT "<<"; L.IDENT "d"; L.EOF ] ->
    ()
  | ts -> Alcotest.failf "bad: %a" Fmt.(list ~sep:sp L.pp_token) ts

(* ---- expression parsing ---- *)

let e = P.expression

let test_parse_precedence () =
  Alcotest.(check bool) "mul binds tighter" true
    (e "1 + 2 * 3" = Ast.(Bin (Add, Int 1, Bin (Mul, Int 2, Int 3))));
  Alcotest.(check bool) "parens override" true
    (e "(1 + 2) * 3" = Ast.(Bin (Mul, Bin (Add, Int 1, Int 2), Int 3)));
  Alcotest.(check bool) "left assoc" true
    (e "1 - 2 - 3" = Ast.(Bin (Sub, Bin (Sub, Int 1, Int 2), Int 3)))

let test_parse_postfix () =
  Alcotest.(check bool) "arrow index" true
    (e "gs->ssn[2]" = Ast.(Index (Arrow (Var "gs", "ssn"), Int 2)));
  Alcotest.(check bool) "method call" true
    (e "st->setSSN(1, 2, 3)"
    = Ast.(Mcall (Var "st", "setSSN", [ Int 1; Int 2; Int 3 ])))

let test_parse_placement_new () =
  Alcotest.(check bool) "placement object" true
    (e ~classes:[ "GradStudent" ] "new (&stud) GradStudent()"
    = Ast.(Pnew (Addr (Var "stud"), Pna_layout.Ctype.Class "GradStudent", [])));
  Alcotest.(check bool) "placement array" true
    (e "new (pool) char[n * 8]"
    = Ast.(
        Pnew_arr
          (Var "pool", Pna_layout.Ctype.Char, Bin (Mul, Var "n", Int 8))));
  Alcotest.(check bool) "heap new" true
    (e ~classes:[ "Student" ] "new Student(3.5, 2010, 1)"
    = Ast.(
        New (Pna_layout.Ctype.Class "Student", [ Flt 3.5; Int 2010; Int 1 ])))

let test_parse_cast_vs_parens () =
  Alcotest.(check bool) "cast" true
    (e "(int)x" = Ast.(Cast (Pna_layout.Ctype.Int, Var "x")));
  Alcotest.(check bool) "parens" true (e "(x)" = Ast.Var "x");
  Alcotest.(check bool) "ptr cast" true
    (e "*(int*)(buf + 4)"
    = Ast.(
        Deref
          (Cast
             ( Pna_layout.Ctype.Ptr Pna_layout.Ctype.Int,
               Bin (Add, Var "buf", Int 4) ))))

let test_parse_sizeof () =
  Alcotest.(check bool) "sizeof class" true
    (e ~classes:[ "GradStudent" ] "sizeof(GradStudent)"
    = Ast.Sizeof (Pna_layout.Ctype.Class "GradStudent"))

let test_parse_error_reports_line () =
  match P.program "int x;\nint broken(= 3;\n" with
  | _ -> Alcotest.fail "expected parse error"
  | exception P.Error { line; _ } -> Alcotest.(check int) "line" 2 line

(* ---- whole programs ---- *)

let listing_13_source =
  {|
class Student {
public:
  double gpa;
  int year;
  int semester;
};

class GradStudent : public Student {
public:
  int ssn[3];
};

int isGradStudent;

void Student::Student(Student *this) {
  this->gpa = 0.0; this->year = 0; this->semester = 0;
}
void GradStudent::GradStudent(GradStudent *this) { }

void addStudent() {
  Student stud;
  if (isGradStudent) {
    GradStudent *gs = new (&stud) GradStudent();
    int i = -1;
    int dssn = 0;
    while (++i < 3) {
      cin >> dssn;
      if (dssn > 0) { gs->ssn[i] = dssn; }
    }
  }
}

void main() {
  isGradStudent = 1;
  addStudent();
  return 0;
}
|}

let test_parse_listing13_and_exploit () =
  (* parse the paper's listing from source text and run the §5.2 attack *)
  let prog = P.program listing_13_source in
  let m = Interp.load ~config:Config.stackguard prog in
  let sys = Machine.function_addr m "system" in
  Machine.set_input ~ints:[ -1; -1; sys ] m;
  let o = Vm.run m (Vm.load prog) ~entry:"main" in
  match o.O.status with
  | O.Arc_injection { symbol = "system"; _ } -> ()
  | st -> Alcotest.failf "expected hijack, got %a" O.pp_status st

let test_parsed_class_layout () =
  let prog = P.program listing_13_source in
  let env = Interp.build_env prog in
  Alcotest.(check int) "GradStudent is 32 bytes" 32
    (Pna_layout.Layout.sizeof env (Pna_layout.Ctype.Class "GradStudent"))

(* print -> parse -> print is the identity on the whole catalogue *)
let roundtrip_cases =
  List.map
    (fun (a : C.t) ->
      Alcotest.test_case (Fmt.str "roundtrip %s" a.C.id) `Quick (fun () ->
          let src1 = CP.program_to_string a.C.program in
          let src2 = CP.program_to_string (P.program src1) in
          Alcotest.(check string) "fixpoint" src1 src2))
    Pna_attacks.All.attacks

(* ... and the reparsed program behaves identically *)
let behaviour_cases =
  List.map
    (fun (a : C.t) ->
      Alcotest.test_case (Fmt.str "reparse behaves like %s" a.C.id) `Quick
        (fun () ->
          let reparsed = P.program (CP.program_to_string a.C.program) in
          let run prog =
            let m = Interp.load ~config:Config.none prog in
            let ints, strings = a.C.mk_input m in
            Machine.set_input ~ints ~strings m;
            Vm.run m (Vm.load prog) ~entry:a.C.entry
          in
          let o1 = run a.C.program and o2 = run reparsed in
          Alcotest.(check string) "same status"
            (Fmt.str "%a" O.pp_status o1.O.status)
            (Fmt.str "%a" O.pp_status o2.O.status);
          Alcotest.(check (list string)) "same output" o1.O.output o2.O.output))
    Pna_attacks.All.attacks

let test_static_analysis_on_parsed () =
  (* the checker flags the parsed-from-source listing too *)
  let prog = P.program listing_13_source in
  Alcotest.(check bool) "flagged" true
    (Pna_analysis.Placement_checker.actionable prog <> [])

(* ---- grammar fuzzing: random programs survive print->parse->print ---- *)

let gen_ident = QCheck.Gen.(map (Fmt.str "v%d") (int_range 0 20))

let gen_expr =
  let open QCheck.Gen in
  sized_size (int_range 0 4) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            map (fun v -> Ast.Int v) (int_range (-99) 999);
            map (fun x -> Ast.Var x) gen_ident;
          ]
      else
        frequency
          [
            (1, map (fun v -> Ast.Int v) (int_range (-99) 999));
            (1, map (fun x -> Ast.Var x) gen_ident);
            ( 3,
              map3
                (fun op a b -> Ast.Bin (op, a, b))
                (oneofl Ast.[ Add; Sub; Mul; Lt; Le; Gt; Ge; Eq; Ne; And; Or ])
                (self (n / 2))
                (self (n / 2)) );
            (1, map (fun e -> Ast.Un (Ast.Neg, e)) (self (n - 1)));
            (1, map (fun e -> Ast.Un (Ast.Not, e)) (self (n - 1)));
            (1, map (fun _ -> Ast.Addr (Ast.Var "v0")) (self 0));
            (1, map2 (fun a ix -> Ast.Index (Ast.Var a, ix)) gen_ident (self (n / 2)));
            (1, map (fun f -> Ast.Arrow (Ast.Var "p0", f)) gen_ident);
          ])

let gen_stmt =
  let open QCheck.Gen in
  sized_size (int_range 0 3) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map2 (fun x e -> Ast.Decl (x, Pna_layout.Ctype.Int, Some e)) gen_ident gen_expr;
            map (fun x -> Ast.Decl (x, Pna_layout.Ctype.Ptr Pna_layout.Ctype.Char, None)) gen_ident;
            map2 (fun x e -> Ast.Assign (Ast.Var x, e)) gen_ident gen_expr;
            map (fun x -> Ast.Assign (Ast.Var x, Ast.Cin)) gen_ident;
            map (fun e -> Ast.Expr e) gen_expr;
            map (fun e -> Ast.Return (Some e)) gen_expr;
            map (fun items -> Ast.Cout items) (list_size (int_range 1 3) gen_expr);
          ]
      in
      if n = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 1,
              map3
                (fun c t f -> Ast.If (c, t, f))
                gen_expr
                (list_size (int_range 0 3) (self (n - 1)))
                (list_size (int_range 0 2) (self (n - 1))) );
            ( 1,
              map2 (fun c b -> Ast.While (c, b)) gen_expr
                (list_size (int_range 0 3) (self (n - 1))) );
          ])

let gen_program =
  let open QCheck.Gen in
  let gen_global =
    map2
      (fun x ty -> Ast.global x ty)
      gen_ident
      (oneofl
         Pna_layout.Ctype.
           [ Int; Double; Ptr Char; Array (Char, 16); Array (Int, 4) ])
  in
  map2
    (fun globals body ->
      (* deduplicate global names to keep the program well-formed *)
      let seen = Hashtbl.create 8 in
      let globals =
        List.filter
          (fun g ->
            if Hashtbl.mem seen g.Ast.g_name then false
            else begin
              Hashtbl.replace seen g.Ast.g_name ();
              true
            end)
          globals
      in
      Ast.program ~globals [ Ast.func "main" body ])
    (list_size (int_range 0 4) gen_global)
    (list_size (int_range 1 8) gen_stmt)

let arb_program =
  QCheck.make ~print:(fun p -> CP.program_to_string p) gen_program

let prop_random_program_roundtrip =
  QCheck.Test.make ~count:300 ~name:"syntax: random programs round-trip"
    arb_program (fun p ->
      let src1 = CP.program_to_string p in
      let src2 = CP.program_to_string (P.program src1) in
      src1 = src2)

let prop_random_expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"syntax: random expressions round-trip"
    (QCheck.make ~print:(fun e -> Fmt.str "%a" (CP.pp_expr ~prec:99) e) gen_expr)
    (fun e ->
      let src1 = Fmt.str "%a" (CP.pp_expr ~prec:99) e in
      let src2 = Fmt.str "%a" (CP.pp_expr ~prec:99) (P.expression src1) in
      src1 = src2)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "syntax",
    [
      t "lexer: basics" test_lex_basic;
      t "lexer: comments" test_lex_comments;
      t "lexer: floats and string escapes" test_lex_floats_and_strings;
      t "lexer: longest-match operators" test_lex_longest_match;
      t "parser: precedence" test_parse_precedence;
      t "parser: postfix chains" test_parse_postfix;
      t "parser: placement new forms" test_parse_placement_new;
      t "parser: cast vs parens" test_parse_cast_vs_parens;
      t "parser: sizeof" test_parse_sizeof;
      t "parser: errors carry line numbers" test_parse_error_reports_line;
      t "Listing 13 from source text, exploited" test_parse_listing13_and_exploit;
      t "parsed classes get correct layout" test_parsed_class_layout;
      t "checker runs on parsed source" test_static_analysis_on_parsed;
      QCheck_alcotest.to_alcotest prop_random_expr_roundtrip;
      QCheck_alcotest.to_alcotest prop_random_program_roundtrip;
    ]
    @ roundtrip_cases @ behaviour_cases )
