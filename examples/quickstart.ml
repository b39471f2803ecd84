(* Quickstart: write a C++ program with the DSL, run it on the simulated
   machine, and watch a placement-new overflow corrupt a neighbour.

     dune exec examples/quickstart.exe
*)

open Pna_minicpp.Dsl
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module Vmem = Pna_vmem.Vmem

(* class Small { int a; int b; };
   class Big : Small { int extra[2]; }; *)
let small = Pna_layout.Class_def.v "Small" [ ("a", int); ("b", int) ]
let big = Pna_layout.Class_def.v "Big" ~bases:[ "Small" ] [ ("extra", int_arr 2) ]

(* Small s; int secret = 1234;   // adjacent globals
   int main() {
     Big *p = new (&s) Big();    // 16 bytes into an 8-byte arena!
     p->extra[0] = cin;          // writes *past* s — onto secret
   } *)
let program_ =
  program
    ~classes:[ small; big ]
    ~globals:[ global "s" (cls "Small"); global "secret" int ]
    [
      func "main"
        [
          decli "p" (ptr (cls "Big")) (pnew (addr (v "s")) (cls "Big") []);
          set (idx (arrow (v "p") "extra") (i 0)) cin;
          ret (i 0);
        ];
    ]

let () =
  (* load the program into a fresh 32-bit process image *)
  let m = Interp.load ~config:Config.none program_ in
  Machine.set_input ~ints:[ 0x41414141 ] ~strings:[] m;

  let secret_addr = Machine.global_addr_exn m "secret" in
  Fmt.pr "before: secret = %d@." (Vmem.read_i32 (Machine.mem m) secret_addr);

  let outcome = Vm.run m (Vm.load program_) ~entry:"main" in
  Fmt.pr "run:    %a@." Pna_minicpp.Outcome.pp_status outcome.Pna_minicpp.Outcome.status;

  let secret = Vmem.read_u32 (Machine.mem m) secret_addr in
  Fmt.pr "after:  secret = 0x%08x (attacker-tainted: %b)@." secret
    (Vmem.range_tainted (Machine.mem m) secret_addr 4);

  Fmt.pr "@.events:@.";
  List.iter
    (fun e -> Fmt.pr "  %s@." (Pna_machine.Event.to_string e))
    outcome.Pna_minicpp.Outcome.events;

  (* the same program under the bounds-checked placement defense *)
  Fmt.pr "@.same program under the bounds-check defense:@.";
  let o2 =
    Vm.execute ~config:Config.bounds_check ~input_ints:[ 0x41414141 ] program_
  in
  Fmt.pr "  %a@." Pna_minicpp.Outcome.pp_status o2.Pna_minicpp.Outcome.status
