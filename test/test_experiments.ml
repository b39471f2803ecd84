(* Tests over the experiment harness itself: every experiment reproduces
   the paper's qualitative shape. These are the assertions EXPERIMENTS.md
   reports. *)

module E = Pna.Experiments
module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module O = Pna_minicpp.Outcome

let test_e1_all_succeed () =
  List.iter
    (fun (r : Driver.result) ->
      Alcotest.(check bool)
        (Fmt.str "%s demonstrated" r.Driver.attack.Catalog.id)
        true r.Driver.verdict.Catalog.success)
    (E.e1 ())

let test_e2_e3_shape () =
  match E.e2_e3 () with
  | [ naive_none; naive_sg; bypass_none; bypass_sg ] ->
    Alcotest.(check bool) "naive/none hijacks" true naive_none.E.hijacked;
    Alcotest.(check bool) "naive/stackguard detected" true naive_sg.E.detected;
    Alcotest.(check bool) "naive/stackguard stopped" false naive_sg.E.hijacked;
    Alcotest.(check bool) "bypass/none hijacks" true bypass_none.E.hijacked;
    Alcotest.(check bool) "bypass/stackguard NOT detected" false
      bypass_sg.E.detected;
    Alcotest.(check bool) "bypass/stackguard hijacks anyway" true
      bypass_sg.E.hijacked
  | _ -> Alcotest.fail "expected 4 trials"

let test_e4_leak_shape () =
  let rows = E.e4 () in
  List.iter
    (fun r ->
      let expected_leak = r.E.leak_config = "none" in
      Alcotest.(check bool)
        (Fmt.str "%s/%s leak" r.E.leak_attack r.E.leak_config)
        expected_leak r.E.secret_leaked;
      if expected_leak then
        Alcotest.(check bool) "stale window positive" true (r.E.stale_bytes > 0))
    rows;
  (* the object leak window is exactly the size difference *)
  (match
     List.find_opt
       (fun r -> r.E.leak_attack = "L22-leakobj" && r.E.leak_config = "none")
       rows
   with
  | Some r -> Alcotest.(check int) "32-16" 16 r.E.stale_bytes
  | None -> Alcotest.fail "missing row")

let test_e5_monotone () =
  let rows = E.e5 ~bounds:[ 5; 100; 10_000 ] () in
  let steps = List.map (fun r -> r.E.steps) rows in
  Alcotest.(check bool) "monotone" true (List.sort compare steps = steps);
  match rows with
  | [ benign; _; big ] ->
    Alcotest.(check bool) "blowup >= 100x" true (big.E.steps > benign.E.steps * 100)
  | _ -> Alcotest.fail "unexpected rows"

let test_e5_timeout_row () =
  match E.e5 ~bounds:[ 0x3fffffff ] () with
  | [ r ] -> (
    match r.E.status with
    | O.Timeout _ -> ()
    | st -> Alcotest.failf "expected timeout, got %a" O.pp_status st)
  | _ -> Alcotest.fail "one row expected"

let test_e6_exact_prediction () =
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Fmt.str "leak at %d iterations" r.E.iterations)
        r.E.predicted r.E.leaked)
    (E.e6 ~points:[ 0; 10; 100; 500 ] ())

let test_e7_headline () =
  let rows = E.e7 () in
  Alcotest.(check bool) "our checker flags all" true
    (List.for_all (fun r -> r.E.ours) rows);
  Alcotest.(check bool) "legacy flags none" true
    (List.for_all (fun r -> not r.E.legacy) rows);
  Alcotest.(check bool) "no hardened false positives" true
    (List.for_all (fun r -> r.E.hardened_clean <> Some false) rows)

let test_e8_no_defense_never_blocks () =
  let matrix = E.e8_matrix ~configs:[ Pna_defense.Config.none ] () in
  List.iter
    (fun (_, cells) ->
      match cells with
      | [ (_, E.Win) ] -> ()
      | _ -> Alcotest.fail "undefended attack should win")
    matrix

let test_e8_overhead_workload_clean () =
  List.iter
    (fun (c, status, _steps) ->
      match status with
      | O.Exited _ -> ()
      | st ->
        Alcotest.failf "benign workload failed under %s: %a"
          c.Pna_defense.Config.name O.pp_status st)
    (E.e8_overhead ~n:100 ())

let test_e10_fuzz_shape () =
  let t = E.e10 ~trials:100 () in
  Alcotest.(check int) "all trials accounted" 100 (t.E.f_clean + t.E.f_crashed + t.E.f_exploited);
  Alcotest.(check bool) "fuzzing mostly crashes" true (t.E.f_crashed > 90);
  Alcotest.(check int) "no lucky exploit" 0 t.E.f_exploited;
  Alcotest.(check bool) "directed attacker wins" true t.E.directed_works;
  Alcotest.(check bool) "checker flags it" true t.E.statically_flagged

(* Composing defenses never weakens them: an attack stopped by any single
   mechanism is also stopped by the full stack. *)
let test_defense_monotonicity () =
  List.iter
    (fun (a : Catalog.t) ->
      let blocked c =
        not (Driver.run ~config:c a).Driver.verdict.Pna_attacks.Catalog.success
      in
      let any_single =
        List.exists blocked
          Pna_defense.Config.
            [ stackguard; shadow_stack; bounds_check; sanitize; nx; pool_discipline ]
      in
      if any_single then
        Alcotest.(check bool)
          (Fmt.str "%s blocked under full" a.Catalog.id)
          true
          (blocked Pna_defense.Config.full))
    Pna_attacks.All.attacks

let test_e11_repair_headline () =
  let rows = E.e11 () in
  let survivors =
    List.filter_map
      (fun r -> if r.E.neutralized then None else Some r.E.r_attack)
      rows
  in
  Alcotest.(check (list string)) "only the copy-loop attacks survive"
    [ "L06-copyloop"; "L10-internal" ]
    (List.sort compare survivors);
  Alcotest.(check bool) "no silent gaps" true
    (List.for_all (fun r -> r.E.residual_flagged) rows)

let test_e12_service_throughput () =
  let r = E.e12 () in
  Alcotest.(check bool) "pooled verdicts match the sequential driver" true
    r.E.sr_agree;
  Alcotest.(check bool) "memoization at least doubles throughput" true
    (r.E.sr_memo_speedup >= 2.0)

let test_e13_telemetry () =
  (* small reps/blocks keep this quick; the overhead ratio gate itself is
     timing-sensitive, so CI asserts it via `pna gate E13` while this
     test pins the structural claims: every scenario trace is complete,
     nothing dropped, and both timing legs actually ran *)
  Pna_telemetry.Telemetry.disable ();
  let r = E.e13 ~reps:2 ~blocks:2 () in
  Alcotest.(check bool) "baseline timed" true (r.E.t13_overhead.E.ov_baseline_s > 0.);
  Alcotest.(check bool) "production timed" true
    (r.E.t13_overhead.E.ov_production_s > 0.);
  Alcotest.(check bool) "rows cover all scenarios x 2 configs" true
    (List.length r.E.t13_rows = 2 * List.length Pna_attacks.All.attacks);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Fmt.str "%s/%s trace complete" t.E.tr_scenario t.E.tr_config)
        true
        (t.E.tr_complete && t.E.tr_blocking_seen))
    r.E.t13_rows;
  Alcotest.(check int) "no ring drops" 0 r.E.t13_dropped;
  Alcotest.(check bool) "telemetry left disabled" false
    (Pna_telemetry.Telemetry.enabled ())

let test_e15_fast_path () =
  (* scale:[] skips the wall-clock scaling sweep (hardware-dependent; CI
     asserts it via `pna gate E15`); the equivalence of the two paths is
     checked row by row by E19 (test_vm) *)
  let r = E.e15 ~iters:100_000 ~scale:[] () in
  Alcotest.(check bool) "both speed legs timed" true
    (r.E.t15_speed.E.fs_fast_ns > 0. && r.E.t15_speed.E.fs_byte_ns > 0.);
  (* the real gate is >= 3x via `pna gate E15`; the tier-1 floor only
     requires the fast path to win at all, so scheduler noise on a loaded
     CI box cannot flake the suite *)
  Alcotest.(check bool) "fast path beats byte path" true
    (r.E.t15_speed.E.fs_ratio > 1.)

let test_workload_heap_churn () =
  let o = Pna.Workloads.run Pna.Workloads.heap_churn ~n:500 in
  match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "heap churn failed: %a" O.pp_status st

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let stub id ok = { E.id; doc = "stub"; run = (fun _ -> ok) }

let harness gates =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  let ok = E.run_gates ppf gates in
  Format.pp_print_flush ppf ();
  (ok, Buffer.contents b)

module Gates = Pna_gen.Gates

let test_registry_order () =
  Alcotest.(check (list string)) "one gate per section, E3 folded into E2"
    (List.init 19 succ |> List.filter (( <> ) 3) |> List.map (Fmt.str "E%d"))
    (List.map (fun (g : E.gate) -> g.E.id) Gates.all);
  match Gates.select [ "all" ] with
  | Ok gs -> Alcotest.(check int) "all selects every gate" 18 (List.length gs)
  | Error m -> Alcotest.fail m

let test_registry_unknown_id () =
  (match Gates.select [ "E13"; "E1" ] with
  | Ok gs ->
    Alcotest.(check (list string)) "registry order, not argument order"
      [ "E1"; "E13" ] (List.map (fun (g : E.gate) -> g.E.id) gs)
  | Error m -> Alcotest.fail m);
  match Gates.select [ "E1"; "E3" ] with
  | Ok _ -> Alcotest.fail "E3 is not a gate of its own"
  | Error m ->
    Alcotest.(check bool) "names the unknown id" true
      (contains "unknown gate E3" m);
    List.iter
      (fun (g : E.gate) ->
        Alcotest.(check bool) (g.E.id ^ " listed") true
          (contains (g.E.id ^ ",") m))
      Gates.all

(* [pna gate] exits on this fold: one failed verdict anywhere fails the
   run, a run that reached no verdict fails too, and every verdict line
   is printed from the bool the gate returned. *)
let test_gate_fold () =
  let ok, out = harness [ stub "E1" true; stub "E13" true; stub "E19" true ] in
  Alcotest.(check bool) "every verdict holds" true ok;
  Alcotest.(check bool) "verdict line per gate" true
    (contains "=> E13 OK\n" out);
  let ok, out = harness [ stub "E1" true; stub "E5" false ] in
  Alcotest.(check bool) "one failed verdict fails the run" false ok;
  Alcotest.(check bool) "its line reads FAILED" true
    (contains "=> E5 FAILED\n" out);
  Alcotest.(check bool) "the failure is named" true (contains "FAILED: E5" out);
  Alcotest.(check bool) "no verdicts fail the run" false (fst (harness []))

(* A report whose forensic sweep came back empty: every other clause
   holds, but E18 needs at least one bundle with a live violation, and
   the only verdict printed is the harness line. *)
let test_e18_empty_forensics_fails () =
  let report =
    {
      E.t18_wire =
        { E.w_traced = 24; w_traces = 24; w_roots_ok = true; w_orphans = 0;
          w_layers_ok = true; w_queue_ok = true; w_dropped = 0 };
      t18_rows = [];
      t18_compat =
        { E.c_v1_versions = true; c_v1_roundtrip = true; c_v2_roundtrip = true;
          c_stats_roundtrip = true };
    }
  in
  let g = E.gate "E18" "synthetic" (fun () -> report) E.pp_e18 E.e18_ok in
  let ok, out = harness [ g ] in
  Alcotest.(check bool) "verdict fails" false ok;
  Alcotest.(check bool) "harness line reads FAILED" true
    (contains "=> E18 FAILED" out);
  Alcotest.(check bool) "no printer verdict" false (contains "holds" out)

(* A default forensic sweep removes the bundle directory it created
   once every bundle has been read back. *)
let test_e18_forensics_cleans_up () =
  let own =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "pna-e18-forensics-%d" (Unix.getpid ()))
  in
  let rows = E.e18_forensics () in
  Alcotest.(check bool) "bundles read back" true
    (rows <> [] && List.for_all (fun r -> r.E.fr_match) rows);
  Alcotest.(check bool) "no directory left" false (Sys.file_exists own)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "experiments",
    [
      t "E1: all attacks demonstrated" test_e1_all_succeed;
      t "E2/E3: StackGuard detects naive, misses bypass" test_e2_e3_shape;
      t "E4: leak iff unsanitized; window = size diff" test_e4_leak_shape;
      t "E5: DoS steps monotone and linear" test_e5_monotone;
      t "E5: huge bound never completes" test_e5_timeout_row;
      t "E6: leak exactly matches prediction" test_e6_exact_prediction;
      t "E7: 25/25 vs 0/25, no hardened FPs" test_e7_headline;
      t "E8: undefended attacks always win" test_e8_no_defense_never_blocks;
      t "E8: benign workload passes every defense" test_e8_overhead_workload_clean;
      t "E10: fuzzing crashes, never exploits" test_e10_fuzz_shape;
      t "composing defenses is monotone" test_defense_monotonicity;
      t "E11: repair neutralizes all but copy loops" test_e11_repair_headline;
      t "E12: service matches driver; memo pays off" test_e12_service_throughput;
      t "E13: traces complete, no drops" test_e13_telemetry;
      t "E15: fast path beats the byte path" test_e15_fast_path;
      t "workload: heap churn" test_workload_heap_churn;
      t "gate fold: any failed verdict fails" test_gate_fold;
      t "gate registry: E1-E19 in order" test_registry_order;
      t "gate registry: unknown id rejected" test_registry_unknown_id;
      t "E18: empty forensics read FAILED" test_e18_empty_forensics_fails;
      t "E18: default forensics leave no directory" test_e18_forensics_cleans_up;
    ] )
