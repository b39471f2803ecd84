(* CI's second pass exports PNA_TELEMETRY=1 (and PNA_SANITIZE=1, read by
   the attack driver) to run the whole suite with the instrumentation and
   the shadow-memory oracle live: verdicts and assertions must not move.
   The telemetry suite manages the switch itself and is unaffected. *)
let () =
  match Sys.getenv_opt "PNA_TELEMETRY" with
  | Some ("1" | "true" | "yes") -> Pna_telemetry.Telemetry.enable ()
  | _ -> ()

let () =
  Alcotest.run "pna"
    [
      Test_rand.suite;
      Test_ring.suite;
      Test_vmem.suite;
      Test_layout.suite;
      Test_heap.suite;
      Test_machine.suite;
      Test_interp.suite;
      Test_serial.suite;
      Test_syntax.suite;
      Test_coverage.suite;
      Test_listings.suite;
      Test_hardener.suite;
      Test_robustness.suite;
      Test_chaos.suite;
      Test_attacks.suite;
      Test_sanitizer.suite;
      Test_analysis.suite;
      Test_experiments.suite;
      Test_service.suite;
      Test_telemetry.suite;
      Test_flight.suite;
      Test_net.suite;
      Test_gen.suite;
      Test_vm.suite;
    ]
