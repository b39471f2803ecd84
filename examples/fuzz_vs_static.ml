(* Fuzzing vs the directed attacker vs static analysis.

   Haugh & Bishop's testing approach (paper ref [11]) finds overflows by
   feeding random inputs. Here we fuzz the Listing-13 server with random
   SSN triples and tally what dynamic testing actually observes — then
   compare with the directed attacker (who knows the layout) and the
   static checker (which sees the root cause without running anything).

     dune exec examples/fuzz_vs_static.exe
*)

module Config = Pna_defense.Config
module Vm = Pna_minicpp.Vm
module O = Pna_minicpp.Outcome
module D = Pna_attacks.Driver

let trials = 2_000
let program_ = Pna_attacks.L13_stack_ret.mk_program ~checked:false

type tally = {
  mutable clean : int;
  mutable crashed : int;
  mutable arc : int;
  mutable code : int;
  mutable other : int;
}

let () =
  let rng = Random.State.make [| 0x5eed |] in
  let t = { clean = 0; crashed = 0; arc = 0; code = 0; other = 0 } in
  for _ = 1 to trials do
    let rand31 () =
      (Random.State.bits rng lsl 1 lxor Random.State.bits rng) land 0x7fffffff
    in
    let ints = List.init 3 (fun _ -> rand31 ()) in
    let o = Vm.execute ~config:Config.none ~input_ints:ints program_ in
    match o.O.status with
    | O.Exited _ -> t.clean <- t.clean + 1
    | O.Crashed _ -> t.crashed <- t.crashed + 1
    | O.Arc_injection _ -> t.arc <- t.arc + 1
    | O.Code_injection _ -> t.code <- t.code + 1
    | _ -> t.other <- t.other + 1
  done;
  Fmt.pr "fuzzing Listing 13 with %d random SSN triples:@." trials;
  Fmt.pr "  ran to completion : %5d  (overflow happened, nobody noticed)@." t.clean;
  Fmt.pr "  crashed           : %5d  (what a fuzzer's triage sees)@." t.crashed;
  Fmt.pr "  arc injection     : %5d  (a working exploit, by pure luck)@." t.arc;
  Fmt.pr "  code injection    : %5d@." t.code;
  Fmt.pr "  other             : %5d@.@." t.other;

  let r = D.run Pna_attacks.L13_stack_ret.attack in
  Fmt.pr "the directed attacker (1 attempt): %a@."
    O.pp_status r.D.outcome.Pna_minicpp.Outcome.status;

  let findings = Pna_analysis.Placement_checker.actionable program_ in
  Fmt.pr "@.the static checker (0 executions): %d actionable finding(s)@."
    (List.length findings);
  List.iter (fun f -> Fmt.pr "  %a@." Pna_analysis.Finding.pp f) findings;
  Fmt.pr
    "@.moral: random testing surfaces crashes, not exploitability; the \
     attacker@.needs one attempt; the checker needs none. (§5.1: correct \
     coding / static@.detection is the right layer for this class.)@."
