(* End-to-end tests over the attack catalogue: every listing succeeds with
   defenses off, the right defense stops the right attack, hardened
   variants are safe, and the headline §5.2 StackGuard result holds. *)

module C = Pna_attacks.Catalog
module D = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome
module Event = Pna_machine.Event

let run ?config id =
  match All.find id with
  | Some a -> D.run ?config a
  | None -> Alcotest.failf "unknown attack %s" id

let check_success r =
  if not r.D.verdict.C.success then
    Alcotest.failf "attack %s failed: %s (%a)" r.D.attack.C.id
      r.D.verdict.C.detail O.pp_status r.D.outcome.O.status

let check_blocked r =
  if r.D.verdict.C.success then
    Alcotest.failf "attack %s succeeded despite %s" r.D.attack.C.id
      r.D.config.Config.name

(* one test per catalogue entry under no defenses *)
let success_cases =
  List.map
    (fun (a : C.t) ->
      Alcotest.test_case (Fmt.str "%s succeeds undefended" a.C.id) `Quick
        (fun () -> check_success (D.run ~config:Config.none a)))
    All.attacks

let hardened_cases =
  List.filter_map
    (fun (a : C.t) ->
      Option.map
        (fun _ ->
          Alcotest.test_case (Fmt.str "%s hardened variant is safe" a.C.id)
            `Quick (fun () ->
              match D.run_hardened ~config:Config.none a with
              | Some (o, safe, _) ->
                if not safe then
                  Alcotest.failf "hardened %s unsafe: %a" a.C.id O.pp_status
                    o.O.status
              | None -> Alcotest.fail "no hardened variant"))
        a.C.hardened)
    All.attacks

(* §5.2: StackGuard catches the naive smash... *)
let test_stackguard_detects_naive () =
  let r = run ~config:Config.stackguard "L13-ret" in
  (match r.D.outcome.O.status with
  | O.Stack_smashing_detected -> ()
  | st -> Alcotest.failf "expected canary abort, got %a" O.pp_status st);
  check_blocked r

(* ... but not the selective overwrite. *)
let test_stackguard_misses_bypass () =
  let r = run ~config:Config.stackguard "L13-bypass" in
  check_success r;
  (* and the canary event never fired *)
  Alcotest.(check bool) "no canary event" false
    (List.exists
       (function Event.Canary_smashed _ -> true | _ -> false)
       r.D.outcome.O.events)

let test_shadow_stack_blocks_all_ret_hijacks () =
  List.iter
    (fun id -> check_blocked (run ~config:Config.shadow_stack id))
    [ "L13-ret"; "L13-bypass"; "L13-inject"; "L19-arrstack" ]

let test_shadow_stack_no_false_block () =
  (* attacks that do not touch return addresses still succeed *)
  List.iter
    (fun id -> check_success (run ~config:Config.shadow_stack id))
    [ "L11-bss"; "L15-var"; "L17-funptr"; "L21-leakarr" ]

let test_bounds_check_blocks_oversize_placements () =
  List.iter
    (fun id -> check_blocked (run ~config:Config.bounds_check id))
    [ "L11-bss"; "L13-ret"; "L16-member"; "VT-bss"; "L19-arrstack"; "L05-remote" ]

let test_bounds_check_misses_equal_size () =
  (* the placement fits its arena; the overflow happens elsewhere *)
  List.iter
    (fun id -> check_success (run ~config:Config.bounds_check id))
    [ "L06-copyloop"; "L10-internal"; "L21-leakarr"; "L23-memleak" ]

let test_nx_blocks_code_injection_only () =
  check_blocked (run ~config:Config.nx "L13-inject");
  (* arc injection returns into real code: NX is irrelevant *)
  check_success (run ~config:Config.nx "L13-ret");
  check_success (run ~config:Config.nx "VT-bss")

let test_sanitize_stops_leaks_only () =
  check_blocked (run ~config:Config.sanitize "L21-leakarr");
  check_blocked (run ~config:Config.sanitize "L22-leakobj");
  check_success (run ~config:Config.sanitize "L11-bss");
  check_success (run ~config:Config.sanitize "L13-ret")

let test_pool_discipline_stops_memleak () =
  check_blocked (run ~config:Config.pool_discipline "L23-memleak");
  check_success (run ~config:Config.pool_discipline "L11-bss")

let test_full_defense_blocks_everything_but_gaps () =
  (* under the full stack, only the equal-size-placement attacks remain *)
  List.iter
    (fun (a : C.t) ->
      let r = D.run ~config:Config.full a in
      match a.C.id with
      | "L06-copyloop" | "L10-internal" -> check_success r
      | _ -> check_blocked r)
    All.attacks

let test_l13_taints_return_address () =
  let r = run "L13-ret" in
  Alcotest.(check bool) "tainted hijack event" true
    (List.exists
       (function
         | Event.Return_hijacked { tainted; _ } -> tainted
         | _ -> false)
       r.D.outcome.O.events)

let test_l15_dos_step_blowup () =
  (* forced n grows -> steps grow linearly; benign run is small *)
  let steps n =
    let o =
      Pna_minicpp.Vm.execute ~config:Config.none ~max_steps:10_000_000
        ~input_ints:[ n ] Pna_attacks.L15_stack_var.program_
    in
    o.O.steps
  in
  let s100 = steps 100 and s10k = steps 10_000 in
  Alcotest.(check bool) "monotone blowup" true (s10k > (s100 * 50));
  Alcotest.(check bool) "roughly linear" true
    (s10k < s100 * 200)

let test_l23_leak_is_linear () =
  let leaked iters =
    let prog = Pna_attacks.L23_memleak.mk_program ~checked:false in
    let m = Pna_minicpp.Interp.load ~config:Config.none prog in
    Pna_machine.Machine.set_input ~ints:[ iters ] ~strings:[] m;
    let _ = Pna_minicpp.Vm.run m (Pna_minicpp.Vm.load prog) ~entry:"main" in
    Pna_machine.Machine.leaked_bytes m
  in
  Alcotest.(check int) "100 iters" 1600 (leaked 100);
  Alcotest.(check int) "200 iters" 3200 (leaked 200)

let test_l21_secret_bytes_verbatim () =
  let r = run "L21-leakarr" in
  Alcotest.(check bool) "full passwd line leaks" true
    (D.output_contains r.D.outcome "SECRET-TOKEN-1337:/root:/bin/bash")

let test_catalog_ids_unique () =
  let ids = List.map (fun a -> a.C.id) All.attacks in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_catalog_covers_paper_listings () =
  let listings =
    List.filter_map (fun a -> a.C.listing) All.attacks |> List.sort_uniq compare
  in
  (* every attack listing of the paper: 5-8, 10-23 (9 is folded into 8) *)
  List.iter
    (fun l ->
      Alcotest.(check bool) (Fmt.str "listing %d covered" l) true
        (List.mem l listings))
    [ 3; 5; 6; 7; 8; 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20; 21; 22; 23 ]

let test_verdicts_have_detail () =
  List.iter
    (fun (a : C.t) ->
      let r = D.run a in
      Alcotest.(check bool)
        (Fmt.str "%s detail nonempty" a.C.id)
        true
        (String.length r.D.verdict.C.detail > 0))
    All.attacks

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "attacks",
    success_cases @ hardened_cases
    @ [
        t "StackGuard detects the naive smash" test_stackguard_detects_naive;
        t "StackGuard misses the selective bypass (§5.2)"
          test_stackguard_misses_bypass;
        t "shadow stack blocks return hijacks" test_shadow_stack_blocks_all_ret_hijacks;
        t "shadow stack lets non-ret attacks through" test_shadow_stack_no_false_block;
        t "bounds check blocks oversize placements" test_bounds_check_blocks_oversize_placements;
        t "bounds check misses equal-size placements" test_bounds_check_misses_equal_size;
        t "NX blocks code injection only" test_nx_blocks_code_injection_only;
        t "sanitize stops leaks only" test_sanitize_stops_leaks_only;
        t "pool discipline stops the memory leak" test_pool_discipline_stops_memleak;
        t "full defense stack" test_full_defense_blocks_everything_but_gaps;
        t "hijacked return address is tainted" test_l13_taints_return_address;
        t "DoS step blow-up is linear in n" test_l15_dos_step_blowup;
        t "memory leak is linear in iterations" test_l23_leak_is_linear;
        t "leaked secret appears verbatim" test_l21_secret_bytes_verbatim;
        t "catalogue ids unique" test_catalog_ids_unique;
        t "catalogue covers the paper's listings" test_catalog_covers_paper_listings;
        t "verdicts carry diagnostics" test_verdicts_have_detail;
      ] )
