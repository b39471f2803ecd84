(* The §3.2 story end-to-end: a student-enrollment "web service" receives
   serialized objects from remote peers and re-materializes them into a
   per-request memory pool with placement new. A well-behaved client, a
   malicious client, and the hardened (§5.1) service.

     dune exec examples/enrollment_service.exe
*)

open Pna_minicpp.Dsl
module Wire = Pna_serial.Wire
module Victim = Pna_serial.Victim
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module Vmem = Pna_vmem.Vmem
module O = Pna_minicpp.Outcome

(* the service: pool + the business state an attacker would love to own *)
let service ~checked =
  program ~classes:Victim.classes
    ~globals:
      ([ Victim.pool_global; global "quota" int; global "next_uid" int ]
      @ Victim.state_globals)
    [
      Victim.deserialize_func ~checked;
      func "main"
        [
          decl "dgram" (char_arr 128);
          (* serve datagrams until the socket runs dry *)
          decli "len" int (call "recv" [ v "dgram"; i 128 ]);
          while_
            (v "len" >: i 0)
            [
              expr (call "deserialize" [ v "dgram" ]);
              set (v "len") (call "recv" [ v "dgram"; i 128 ]);
            ];
          ret (i 0);
        ];
    ]

let show_state label m =
  let g n = Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m n) in
  Fmt.pr "  %-22s quota=%-10d next_uid=%-10d served=%d rejected=%d@." label
    (g "quota") (g "next_uid") (g "served") (g "rejected")

let run ~checked payloads =
  let prog = service ~checked in
  let m = Interp.load ~config:Config.none prog in
  Machine.set_input ~strings:payloads m;
  let o = Vm.run m (Vm.load prog) ~entry:"main" in
  (o, m)

let () =
  Fmt.pr "=== enrollment service (vulnerable) ===@.";
  (* quota/next_uid sit in bss directly after the 16-byte pool: exactly
     where a placed NetGradStudent's ssn[] lands *)
  Fmt.pr "wire format: class id + fields; the pool is sized for a NetStudent.@.@.";

  (* 1. honest clients *)
  let honest =
    [
      Wire.encode (Wire.student ~gpa:3.4 ~year:2010 ~semester:1 ());
      Wire.encode (Wire.student ~gpa:2.9 ~year:2011 ~semester:2 ());
    ]
  in
  let o, m = run ~checked:false honest in
  Fmt.pr "two honest requests -> %a@." O.pp_status o.O.status;
  show_state "after honest traffic:" m;

  (* 2. the attacker sends a NetGradStudent whose SSN words alias the
        service's quota and uid counters *)
  Fmt.pr "@.malicious datagram: class id 2, ssn = [999999; 31337; 0]@.";
  let evil =
    Wire.encode (Wire.grad_student ~ssn:[| 999999; 31337; 0 |] ())
  in
  let o, m = run ~checked:false (honest @ [ evil ]) in
  Fmt.pr "with the attacker in the mix -> %a@." O.pp_status o.O.status;
  show_state "after the attack:" m;
  Fmt.pr "  (quota and next_uid are attacker-tainted: %b)@."
    (Vmem.range_tainted (Machine.mem m) (Machine.global_addr_exn m "quota") 8);

  (* 3. static audit would have caught the service before deployment *)
  let findings = Pna_analysis.Placement_checker.actionable (service ~checked:false) in
  Fmt.pr "@.static audit of the vulnerable service: %d actionable finding(s)@."
    (List.length findings);
  List.iter (fun f -> Fmt.pr "  %a@." Pna_analysis.Finding.pp f) findings;

  (* 4. the §5.1 fix *)
  Fmt.pr "@.=== hardened service (size check + count clamp) ===@.";
  let o, m = run ~checked:true (honest @ [ evil ]) in
  Fmt.pr "same traffic -> %a@." O.pp_status o.O.status;
  show_state "after the same traffic:" m;
  let clean = Pna_analysis.Placement_checker.actionable (service ~checked:true) in
  Fmt.pr "static audit of the hardened service: %d actionable finding(s)@."
    (List.length clean);
  List.iter (fun f -> Fmt.pr "  %a@." Pna_analysis.Finding.pp f) clean;
  Fmt.pr
    "  (the remaining Medium finding is the §2.5 alignment hazard of placing\n\
    \   an 8-aligned object into a char pool — real, but not the overflow)@."
