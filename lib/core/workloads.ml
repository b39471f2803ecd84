(** Benign MiniC++ workloads used to measure defense overhead (E8) and
    substrate throughput. These use placement new the way its §2.1 use
    cases intend: equal-size reuse of a memory pool, so every defense
    passes them and the measured cost is pure overhead. *)

open Pna_minicpp.Dsl
module Schema = Pna_attacks.Schema

(* A server loop: per request, call a handler that places a Student into a
   pool slot of exactly the right size, fills it, and copies a fixed-size
   username. [requests] comes from input so one program serves all sizes. *)
let pool_server =
  program ~classes:[ Schema.student ]
    ~globals:
      [
        global "pool" (char_arr 16);
        global "uname" (char_arr 16);
        global "served" int;
      ]
    [
      func "Student::ctor"
        ~params:[ ("this", ptr (cls "Student")) ]
        [
          set (arrow (v "this") "gpa") (fl 0.0);
          set (arrow (v "this") "year") (i 0);
          set (arrow (v "this") "semester") (i 0);
        ];
      func "handle" ~params:[ ("req", int) ]
        [
          decli "s" (ptr (cls "Student")) (pnew (v "pool") (cls "Student") []);
          set (arrow (v "s") "year") (v "req");
          set (arrow (v "s") "semester") (v "req" %: i 8);
          expr (call "strncpy" [ v "uname"; str "benign-user" ; i 12 ]);
          set (v "served") (v "served" +: i 1);
        ];
      func "main"
        [
          decli "n" int cin;
          for_
            (decli "j" int (i 0))
            (v "j" <: v "n")
            (set (v "j") (v "j" +: i 1))
            [ expr (call "handle" [ v "j" ]) ];
          ret (v "served");
        ];
    ]

(* Heap churn: allocate/free pairs, exercising the free-list allocator. *)
let heap_churn =
  program ~classes:Schema.base_classes
    ~globals:[ global "p" (ptr (cls "GradStudent")) ]
    (Schema.base_funcs
    @ [
        func "main"
          [
            decli "n" int cin;
            for_
              (decli "j" int (i 0))
              (v "j" <: v "n")
              (set (v "j") (v "j" +: i 1))
              [
                set (v "p") (new_ (cls "GradStudent") []);
                delete (v "p");
              ];
            ret (i 0);
          ];
      ])

let run ?(config = Pna_defense.Config.none) prog ~n =
  Pna_minicpp.Vm.execute ~max_steps:50_000_000 ~config ~input_ints:[ n ] prog
