(** The experiment suite: one runner per row of DESIGN.md's per-experiment
    index. Each returns structured results, has a printer that
    regenerates the corresponding table of EXPERIMENTS.md and a verdict;
    {!gates} bundles the three as the gates E1–E16 and E18, run by
    {!run_gates}. *)

module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Machine = Pna_machine.Machine
module Event = Pna_machine.Event
module Heap = Pna_machine.Heap
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Outcome = Pna_minicpp.Outcome
module Audit = Pna_analysis.Audit
module Finding = Pna_analysis.Finding

(* ------------------------------------------------------------------ *)
(* E1: every attack succeeds with defenses off                          *)

let e1 () = List.map (fun a -> Driver.run ~config:Config.none a) All.attacks

let pp_e1 ppf results =
  Fmt.pf ppf "@[<v>E1 — attack demonstrations (defenses off)@,%s@," (String.make 100 '-');
  List.iter
    (fun (r : Driver.result) ->
      let a = r.Driver.attack in
      Fmt.pf ppf "%-14s L%-3s %-9s %-8s %a@,"
        a.Catalog.id
        (match a.Catalog.listing with Some l -> string_of_int l | None -> "--")
        (Catalog.segment_name a.Catalog.segment)
        (if r.Driver.verdict.Catalog.success then "SUCCESS" else "blocked")
        Outcome.pp_status r.Driver.outcome.Outcome.status)
    results;
  let ok =
    List.length (List.filter (fun r -> r.Driver.verdict.Catalog.success) results)
  in
  Fmt.pf ppf "=> %d/%d attacks demonstrated@]" ok (List.length results)

(* ------------------------------------------------------------------ *)
(* E2/E3: the StackGuard experiment of §5.2                             *)

type stackguard_trial = {
  label : string;
  config : Config.t;
  result : Driver.result;
  detected : bool;
  hijacked : bool;
}

let stackguard_trial label config attack =
  let result = Driver.run ~config attack in
  {
    label;
    config;
    result;
    detected =
      (match result.Driver.outcome.Outcome.status with
      | Outcome.Stack_smashing_detected -> true
      | _ -> false);
    hijacked = Outcome.hijacked result.Driver.outcome;
  }

let e2_e3 () =
  [
    stackguard_trial "naive smash, no protection" Config.none
      Pna_attacks.L13_stack_ret.attack;
    stackguard_trial "naive smash, StackGuard" Config.stackguard
      Pna_attacks.L13_stack_ret.attack;
    stackguard_trial "selective overwrite, no protection" Config.none
      Pna_attacks.L13_stack_ret.bypass;
    stackguard_trial "selective overwrite, StackGuard" Config.stackguard
      Pna_attacks.L13_stack_ret.bypass;
  ]

let pp_e2_e3 ppf trials =
  Fmt.pf ppf "@[<v>E2/E3 — StackGuard vs the placement-new stack smash (§5.2)@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun t ->
      Fmt.pf ppf "%-36s detected=%-5b hijacked=%-5b (%a)@," t.label t.detected
        t.hijacked Outcome.pp_status t.result.Driver.outcome.Outcome.status)
    trials;
  Fmt.pf ppf
    "=> StackGuard stops the naive smash but NOT the selective overwrite \
     (paper: \"We succeeded, and StackGuard could not detect it\")@]"

(* ------------------------------------------------------------------ *)
(* E4: information leakage sizes (§4.3)                                 *)

type leak_row = {
  leak_attack : string;
  leak_config : string;
  secret_leaked : bool;
  stale_bytes : int;  (** arena bytes beyond the newly placed footprint *)
}

let stale_bytes_of (o : Outcome.t) =
  List.fold_left
    (fun acc e ->
      match e with
      | Event.Placement { size; arena = Some a; _ } when a > size ->
        max acc (a - size)
      | _ -> acc)
    0 o.Outcome.events

let e4 () =
  List.concat_map
    (fun (a : Catalog.t) ->
      List.map
        (fun config ->
          let r = Driver.run ~config a in
          {
            leak_attack = a.Catalog.id;
            leak_config = config.Config.name;
            secret_leaked = r.Driver.verdict.Catalog.success;
            stale_bytes = stale_bytes_of r.Driver.outcome;
          })
        [ Config.none; Config.sanitize ])
    [ Pna_attacks.L21_leak_array.attack; Pna_attacks.L22_leak_object.attack ]

let pp_e4 ppf rows =
  Fmt.pf ppf "@[<v>E4 — information leakage (§4.3)@,%s@," (String.make 100 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%-12s under %-9s leaked=%-5b stale window=%d bytes@,"
        r.leak_attack r.leak_config r.secret_leaked r.stale_bytes)
    rows;
  Fmt.pf ppf "=> leak window = sizeof(old) - sizeof(new); sanitization closes it@]"

(* ------------------------------------------------------------------ *)
(* E5: DoS response-time curve (§4.4)                                   *)

type dos_row = { forced_n : int; steps : int; status : Outcome.status }

(* Drive the Listing-15 server with attacker-chosen loop bounds and watch
   the work per request grow linearly until the request never finishes. *)
let e5 ?(bounds = [ 5; 100; 10_000; 1_000_000; 0x3fffffff ]) () =
  List.map
    (fun n ->
      let o =
        Vm.execute ~config:Config.none ~max_steps:5_000_000
          ~input_ints:[ n ] Pna_attacks.L15_stack_var.program_
      in
      { forced_n = n; steps = o.Outcome.steps; status = o.Outcome.status })
    bounds

let pp_e5 ppf rows =
  Fmt.pf ppf "@[<v>E5 — DoS via overwritten loop bound (§4.4)@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "forced n=%-10d -> %8d interpreter steps (%a)@," r.forced_n
        r.steps Outcome.pp_status r.status)
    rows;
  Fmt.pf ppf "=> response time grows linearly in the attacker's n until timeout@]"

(* ------------------------------------------------------------------ *)
(* E6: memory-leak growth (§4.5)                                        *)

type memleak_row = {
  iterations : int;
  leaked : int;
  predicted : int;
  heap_in_use : int;
}

let e6 ?(points = [ 0; 50; 100; 200; 400; 800 ]) () =
  List.map
    (fun iters ->
      let prog = Pna_attacks.L23_memleak.mk_program ~checked:false in
      let m = Interp.load ~config:Config.none prog in
      Machine.set_input ~ints:[ iters ] ~strings:[] m;
      let _o = Vm.run ~max_steps:50_000_000 m (Vm.load prog) ~entry:"main" in
      {
        iterations = iters;
        leaked = Machine.leaked_bytes m;
        predicted = iters * Pna_attacks.L23_memleak.leak_per_iter;
        heap_in_use = (Machine.heap_stats m).Heap.in_use;
      })
    points

let pp_e6 ppf rows =
  Fmt.pf ppf "@[<v>E6 — memory leak growth (§4.5)@,%s@," (String.make 100 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf
        "iterations=%-5d leaked=%-7d predicted=%-7d in_use=%-7d %s@,"
        r.iterations r.leaked r.predicted r.heap_in_use
        (if r.leaked = r.predicted then "(exact)" else "(MISMATCH)"))
    rows;
  Fmt.pf ppf
    "=> leaked bytes = iterations x (sizeof(GradStudent) - sizeof(Student))@]"

(* ------------------------------------------------------------------ *)
(* E7: static detection (§1 claim + §7 future-work tool)                *)

type detect_row = {
  d_attack : string;
  ours : bool;
  legacy : bool;
  hardened_clean : bool option;
      (** Some true: hardened variant exists and is not flagged *)
}

let e7 () =
  List.map
    (fun (a : Catalog.t) ->
      let kinds = Audit.relevant_kinds a.Catalog.id in
      let r = Audit.analyze a.Catalog.program in
      {
        d_attack = a.Catalog.id;
        ours = Audit.flags kinds r.Audit.placement;
        legacy = Audit.flags kinds r.Audit.legacy;
        hardened_clean =
          Option.map
            (fun h ->
              not (Audit.flags kinds (Audit.analyze h).Audit.placement))
            a.Catalog.hardened;
      })
    All.attacks

let pp_e7 ppf rows =
  Fmt.pf ppf
    "@[<v>E7 — static detection: placement checker vs string-op baseline@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%-14s ours=%-8s legacy=%-8s hardened=%s@," r.d_attack
        (if r.ours then "FLAGGED" else "MISSED")
        (if r.legacy then "flagged" else "silent")
        (match r.hardened_clean with
        | None -> "n/a"
        | Some true -> "clean"
        | Some false -> "FALSE-POSITIVE"))
    rows;
  let n = List.length rows in
  let ours = List.length (List.filter (fun r -> r.ours) rows) in
  let legacy = List.length (List.filter (fun r -> r.legacy) rows) in
  let fps =
    List.length (List.filter (fun r -> r.hardened_clean = Some false) rows)
  in
  Fmt.pf ppf
    "=> placement checker: %d/%d; legacy baseline: %d/%d; false positives on \
     hardened variants: %d@]"
    ours n legacy n fps

(* ------------------------------------------------------------------ *)
(* E8: defense efficacy matrix + overhead                               *)

type cell = Win | Blocked of string | Neutralized of string

let e8_matrix ?(configs = Config.all) () =
  List.map
    (fun (a : Catalog.t) ->
      ( a,
        List.map
          (fun config ->
            let r = Driver.run ~config a in
            let cell =
              if r.Driver.verdict.Catalog.success then Win
              else
                match r.Driver.outcome.Outcome.status with
                | Outcome.Stack_smashing_detected -> Blocked "canary"
                | Outcome.Defense_blocked d -> Blocked d
                | st -> Neutralized (Fmt.str "%a" Outcome.pp_status st)
            in
            (config, cell))
          configs ))
    All.attacks

let pp_e8_matrix ppf matrix =
  Fmt.pf ppf "@[<v>E8 — attack x defense matrix@,";
  (match matrix with
  | (_, cells) :: _ ->
    Fmt.pf ppf "%-14s" "attack";
    List.iter (fun (c, _) -> Fmt.pf ppf "%-14s" c.Config.name) cells;
    Fmt.pf ppf "@,%s@," (String.make (14 + (14 * List.length cells)) '-')
  | [] -> ());
  List.iter
    (fun ((a : Catalog.t), cells) ->
      Fmt.pf ppf "%-14s" a.Catalog.id;
      List.iter
        (fun (_, cell) ->
          Fmt.pf ppf "%-14s"
            (match cell with
            | Win -> "ATTACK-WINS"
            | Blocked d -> d
            | Neutralized _ -> "no-effect"))
        cells;
      Fmt.pf ppf "@,")
    matrix;
  Fmt.pf ppf "@]"

(* Overhead: interpreter steps are identical across configs (the defenses
   act inside machine primitives), so the bench harness times wall-clock;
   here we expose the workload runner and a steps-based sanity count. *)
let e8_overhead ?(n = 2_000) () =
  List.map
    (fun config ->
      let o = Workloads.run ~config Workloads.pool_server ~n in
      (config, o.Outcome.status, o.Outcome.steps))
    (Config.all @ [ Config.pool_discipline ])

let pp_e8_overhead ppf rows =
  Fmt.pf ppf "@[<v>E8 — benign pool-server workload under each defense@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun (c, status, steps) ->
      Fmt.pf ppf "%-16s %a (%d steps)@," c.Config.name Outcome.pp_status status
        steps)
    rows;
  Fmt.pf ppf "=> all defenses pass the benign workload; timing in bench/main.exe@]"

(* ------------------------------------------------------------------ *)
(* E9: chaos — graceful degradation under injected faults               *)

module Plan = Pna_chaos.Plan

(* The benign pool server wrapped as a catalogue entry so the supervisor
   can drive it like any attack. *)
let benign_pool =
  Catalog.make ~id:"benign-pool" ~section:"2.1" ~name:"benign pool server"
    ~segment:Catalog.Data_bss ~goal:"serve 64 requests to completion"
    ~program:Workloads.pool_server
    ~mk_input:(fun _ -> ([ 64 ], []))
    ~check:(fun _ o ->
      if Outcome.exited_normally o then Catalog.success "served to completion"
      else Catalog.failure "benign workload did not complete")
    ()

type chaos_row = {
  ch_seed : int;
  ch_attack : string;
  ch_config : string;
  ch_status : Outcome.status;
  ch_attempts : int;
  ch_fired : string list;
  ch_escaped : bool;
      (** an exception escaped the supervisor — must never be true *)
  ch_detect_ok : bool;
      (** degradation invariant: a perturbed run only reports attack
          success when the unperturbed baseline also succeeds — chaos
          must never turn a blocked attack into a win *)
}

(* Representative victims: a stack smash, the wire-format overflow, a
   heap overflow, and the benign workload — every fault category in a
   plan has something to hit. *)
let e9_programs () =
  [
    Pna_attacks.L13_stack_ret.attack;
    Pna_attacks.Ser_remote_object.course_count;
    Pna_attacks.L12_heap.attack;
    benign_pool;
  ]

(* a step budget large enough for every victim, small enough that a
   chaos-corrupted loop bound cannot stall the sweep *)
let e9_budget = 200_000

let e9 ?(seeds = 10) () =
  let configs = Config.all in
  let programs = e9_programs () in
  let baselines =
    List.map
      (fun (a : Catalog.t) ->
        ( a.Catalog.id,
          List.map
            (fun c ->
              ( c.Config.name,
                (Driver.run ~config:c a).Driver.verdict.Catalog.success ))
            configs ))
      programs
  in
  let baseline_success aid cname = List.assoc cname (List.assoc aid baselines) in
  List.concat_map
    (fun (a : Catalog.t) ->
      List.concat_map
        (fun config ->
          List.init seeds (fun k ->
              let seed = 1 + k in
              let plan = Plan.generate ~seed () in
              match
                Driver.supervise ~config ~max_steps:e9_budget ~plan a
              with
              | s ->
                {
                  ch_seed = seed;
                  ch_attack = a.Catalog.id;
                  ch_config = config.Config.name;
                  ch_status = s.Driver.sv_outcome.Outcome.status;
                  ch_attempts = s.Driver.sv_attempts;
                  ch_fired = s.Driver.sv_fired;
                  ch_escaped = false;
                  ch_detect_ok =
                    (not s.Driver.sv_verdict.Catalog.success)
                    || baseline_success a.Catalog.id config.Config.name;
                }
              | exception exn ->
                {
                  ch_seed = seed;
                  ch_attack = a.Catalog.id;
                  ch_config = config.Config.name;
                  ch_status =
                    Outcome.Crashed
                      (Fmt.str "ESCAPED: %s" (Printexc.to_string exn));
                  ch_attempts = 0;
                  ch_fired = [];
                  ch_escaped = true;
                  ch_detect_ok = false;
                }))
        configs)
    programs

let status_key = function
  | Outcome.Exited _ -> "exited"
  | Outcome.Recovered _ -> "recovered"
  | Outcome.Crashed _ -> "crashed"
  | Outcome.Stack_smashing_detected -> "canary"
  | Outcome.Defense_blocked _ -> "blocked"
  | Outcome.Timeout _ -> "timeout"
  | Outcome.Out_of_memory -> "oom"
  | Outcome.Internal_error _ -> "internal-error"
  | Outcome.Arc_injection _ -> "arc-inj"
  | Outcome.Code_injection _ -> "code-inj"

let pp_e9 ppf rows =
  Fmt.pf ppf "@[<v>E9 — chaos: graceful degradation under injected faults@,%s@,"
    (String.make 100 '-');
  (* one line per attack x config: a histogram of classified statuses *)
  let groups =
    List.fold_left
      (fun acc r ->
        let key = (r.ch_attack, r.ch_config) in
        let prev = try List.assoc key acc with Not_found -> [] in
        (key, r :: prev) :: List.remove_assoc key acc)
      [] rows
    |> List.rev
  in
  List.iter
    (fun ((attack, config), rs) ->
      let histo =
        List.fold_left
          (fun acc r ->
            let k = status_key r.ch_status in
            let n = try List.assoc k acc with Not_found -> 0 in
            (k, n + 1) :: List.remove_assoc k acc)
          [] (List.rev rs)
        |> List.rev
      in
      let recovered =
        List.length (List.filter (fun r -> r.ch_attempts > 1) rs)
      in
      let fired =
        List.fold_left (fun n r -> n + List.length r.ch_fired) 0 rs
      in
      Fmt.pf ppf "%-16s %-12s runs=%-3d fired=%-3d retried=%-3d %a@," attack
        config (List.length rs) fired recovered
        Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") string int))
        histo)
    groups;
  let n = List.length rows in
  let escaped = List.length (List.filter (fun r -> r.ch_escaped) rows) in
  let bad = List.length (List.filter (fun r -> not r.ch_detect_ok) rows) in
  Fmt.pf ppf
    "=> %d perturbed runs: %d escaped exceptions, degradation invariant held \
     in %d/%d@]"
    n escaped (n - bad) n

(* ------------------------------------------------------------------ *)
(* E10 (extension): random testing vs the directed attacker             *)

type fuzz_tally = {
  f_trials : int;
  f_clean : int;
  f_crashed : int;
  f_exploited : int;  (** arc or code injection found by luck *)
  directed_works : bool;
  statically_flagged : bool;
}

(* Fuzz the Listing-13 server with random SSN triples (Haugh & Bishop's
   testing approach, paper ref [11]): dynamic testing observes crashes,
   essentially never exploitability; the directed attacker needs one
   attempt; the static checker none. *)
let e10 ?(trials = 500) () =
  let prog = Pna_attacks.L13_stack_ret.mk_program ~checked:false in
  let rng = Random.State.make [| 0x5eed |] in
  let rand31 () =
    (Random.State.bits rng lsl 1 lxor Random.State.bits rng) land 0x7fffffff
  in
  let clean = ref 0 and crashed = ref 0 and exploited = ref 0 in
  for _ = 1 to trials do
    let ints = List.init 3 (fun _ -> rand31 ()) in
    let o = Vm.execute ~config:Config.none ~input_ints:ints prog in
    match o.Outcome.status with
    | Outcome.Exited _ -> incr clean
    | Outcome.Crashed _ -> incr crashed
    | Outcome.Arc_injection _ | Outcome.Code_injection _ -> incr exploited
    | _ -> ()
  done;
  let directed = Driver.run Pna_attacks.L13_stack_ret.attack in
  {
    f_trials = trials;
    f_clean = !clean;
    f_crashed = !crashed;
    f_exploited = !exploited;
    directed_works = directed.Driver.verdict.Catalog.success;
    statically_flagged =
      Pna_analysis.Placement_checker.actionable prog <> [];
  }

let pp_e10 ppf t =
  Fmt.pf ppf
    "@[<v>E10 — random testing vs directed attack vs static analysis@,%s@,     fuzz trials: %d -> clean=%d crashed=%d exploited=%d@,     directed attacker: %s in one attempt@,     static checker: %s without executing@,     => fuzzing sees crashes, not exploitability@]"
    (String.make 100 '-') t.f_trials t.f_clean t.f_crashed t.f_exploited
    (if t.directed_works then "succeeds" else "fails")
    (if t.statically_flagged then "flags the defect" else "misses it")

(* ------------------------------------------------------------------ *)
(* E11 (extension): automatic repair — the §7 tool's second half         *)

type repair_row = {
  r_attack : string;
  repairs : int;
  neutralized : bool;
  residual_flagged : bool;
      (** when the attack survives, does the checker still flag the
          hardened program? (soundness hand-off) *)
}

let e11 () =
  List.map
    (fun (a : Catalog.t) ->
      let h = Pna_analysis.Hardener.harden a.Catalog.program in
      let r =
        Driver.run ~config:Config.none
          { a with Catalog.program = h; Catalog.hardened = None }
      in
      let survived = r.Driver.verdict.Catalog.success in
      {
        r_attack = a.Catalog.id;
        repairs = Pna_analysis.Hardener.count_repairs a.Catalog.program;
        neutralized = not survived;
        residual_flagged =
          (not survived)
          || Pna_analysis.Placement_checker.actionable h <> [];
      })
    All.attacks

let pp_e11 ppf rows =
  Fmt.pf ppf
    "@[<v>E11 — automatic repair (§7: \"automatically addressing these \
     vulnerabilities\")@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%-14s repairs=%d %s%s@," r.r_attack r.repairs
        (if r.neutralized then "neutralized" else "SURVIVES (out of scope)")
        (if r.residual_flagged then "" else "  [SILENT GAP!]"))
    rows;
  let fixed = List.length (List.filter (fun r -> r.neutralized) rows) in
  Fmt.pf ppf
    "=> %d/%d attacks neutralized by source repair; every survivor is still \
     flagged by the checker@]"
    fixed (List.length rows)

(* ------------------------------------------------------------------ *)
(* E12 (extension): throughput — the parallel scenario service           *)

module Service = Pna_service.Service

type service_phase = {
  sp_label : string;
  sp_jobs : int;  (** effective worker-domain count *)
  sp_requests : int;
  sp_seconds : float;
  sp_stats : Service.stats;  (** cumulative for that phase's service *)
}

type service_report = {
  sr_phases : service_phase list;
  sr_agree : bool;
      (** pooled replies over the whole catalogue are verdict-identical
          to the sequential {!Driver.run} *)
  sr_memo_speedup : float;
      (** same benign request stream, executing every request vs serving
          repeats from the memo cache (one worker, so the ratio isolates
          memoization from parallelism) *)
}

(* capped so the DoS/OOM catalogue entries cannot stall the sweep; both
   the pooled and the sequential side run under the same cap, so the
   comparison stays exact *)
let e12_budget = 60_000

(* The memoization target: the benign E8 pool-server workload requested
   repeatedly under every defense — the steady state of a scenario
   service fed by a CI loop. *)
let e12_stream ~repeats =
  List.concat
    (List.init repeats (fun _ ->
         List.map
           (fun config ->
             Service.job ~config ~max_steps:e12_budget benign_pool)
           (Config.all @ [ Config.pool_discipline ])))

let e12_phase ~label ~jobs ~memo stream =
  let svc = Service.create ~jobs ~memo () in
  (* settle major-GC debt left by earlier phases (sanitized runs retire
     whole shadowed machines) so it is not billed to this timed region *)
  Gc.full_major ();
  let (_ : Service.reply list), secs =
    Service.timed (fun () -> Service.run_batch svc stream)
  in
  let phase =
    {
      sp_label = label;
      sp_jobs = Service.jobs svc;
      sp_requests = List.length stream;
      sp_seconds = secs;
      sp_stats = Service.stats svc;
    }
  in
  Service.shutdown svc;
  phase

let e12 ?(scale = [ 1; 2; 4 ]) () =
  (* determinism: whole catalogue, undefended and fully defended, pooled
     at 4 domains vs the sequential driver *)
  let verify_jobs =
    Service.matrix_jobs
      ~configs:[ Config.none; Config.full ]
      ~max_steps:e12_budget ()
  in
  let sequential =
    List.map
      (fun (j : Service.job) ->
        Service.reply_of_result
          (Driver.run ~config:j.Service.j_config ~max_steps:e12_budget
             j.Service.j_attack))
      verify_jobs
  in
  let svc = Service.create ~jobs:4 () in
  let pooled = Service.run_batch svc verify_jobs in
  Service.shutdown svc;
  let strip (r : Service.reply) = { r with Service.r_cached = false } in
  let sr_agree = List.map strip pooled = List.map strip sequential in
  (* memoization: one worker executing every request, then one worker
     serving the identical stream mostly from the cache *)
  let stream = e12_stream ~repeats:24 in
  let cold = e12_phase ~label:"memo off" ~jobs:1 ~memo:false stream in
  let warm = e12_phase ~label:"memo on" ~jobs:1 ~memo:true stream in
  (* domain scaling over the same stream, memoization off so the work is
     real; requests/second here is hardware-honest, not asserted *)
  let scaling =
    List.map
      (fun n ->
        e12_phase ~label:(Fmt.str "%d domain%s" n (if n = 1 then "" else "s"))
          ~jobs:n ~memo:false stream)
      scale
  in
  {
    sr_phases = (cold :: warm :: scaling);
    sr_agree;
    sr_memo_speedup =
      (if warm.sp_seconds > 0. then cold.sp_seconds /. warm.sp_seconds
       else Float.infinity);
  }

let pp_service_phase ppf p =
  let per_sec =
    if p.sp_seconds > 0. then float_of_int p.sp_requests /. p.sp_seconds
    else Float.infinity
  in
  Fmt.pf ppf "%-10s jobs=%d  %4d req in %6.3fs  (%8.0f req/s)  %a" p.sp_label
    p.sp_jobs p.sp_requests p.sp_seconds per_sec Service.pp_stats_line
    p.sp_stats

let pp_e12 ppf r =
  Fmt.pf ppf
    "@[<v>E12 — scenario-service throughput (snapshot reuse + memoization)@,%s@,"
    (String.make 100 '-');
  List.iter (fun p -> Fmt.pf ppf "%a@," pp_service_phase p) r.sr_phases;
  Fmt.pf ppf
    "=> pooled verdicts %s the sequential driver; memoization speeds the \
     repeated benign stream %.1fx@,\
     \   (domain scaling is hardware-dependent — see bench/main.exe service)@]"
    (if r.sr_agree then "match" else "DIVERGE FROM")
    r.sr_memo_speedup

(* ------------------------------------------------------------------ *)
(* E13 (extension): telemetry — overhead and trace completeness          *)

module Telemetry = Pna_telemetry.Telemetry
module Clock = Pna_telemetry.Clock
module Trace = Pna_telemetry.Trace

type e13_overhead = {
  ov_baseline_s : float;  (** best block: inline loop, no telemetry sites *)
  ov_production_s : float;  (** best block: driver path, telemetry off *)
  ov_ratio : float;  (** production / baseline *)
}

type e13_trace_row = {
  tr_scenario : string;
  tr_config : string;
  tr_events : int;  (** machine events the run emitted *)
  tr_complete : bool;
      (** every emitted event appears as a trace instant of its kind,
          and a driver "run" span encloses them *)
  tr_blocking_seen : bool;
      (** a blocked outcome has its blocking event in the trace (true
          vacuously when the run was not blocked) *)
}

type e13_report = {
  t13_overhead : e13_overhead;
  t13_rows : e13_trace_row list;
  t13_dropped : int;  (** ring-buffer drops across the completeness sweep *)
}

(* Overhead, one estimator for E13, E14 and E18: the E12 workload
   (benign_pool under every config) driven two ways on one domain. The
   baseline side inlines what the first run_prepared did — rewind,
   recompute input, execute, judge — calling the machine and VM directly
   so none of the call sites added since (driver spans, vmem delta
   sampling, span annotations, the sanitizer hook) are on the path. The
   production side is {!Driver.run_prepared} with telemetry disabled and
   no oracle attached. The ratio of the two sides' best blocks gates
   that disabled machinery at 5%. *)
let overhead_configs = Config.all @ [ Config.pool_discipline ]

(* One baseline run per config, each a thunk. *)
let baseline_runs () =
  let a = benign_pool in
  let u = Vm.load a.Catalog.program in
  List.map
    (fun config ->
      let m = Interp.load ~config a.Catalog.program in
      let snap = Machine.snapshot m in
      fun () ->
        Machine.restore m snap;
        let ints, strings = a.Catalog.mk_input m in
        Machine.set_input ~ints ~strings m;
        let o = Vm.run ~max_steps:e12_budget m u ~entry:a.Catalog.entry in
        ignore (a.Catalog.check m o))
    overhead_configs

(* One driver run per config, each a thunk. *)
let driver_runs ~sanitize =
  List.map
    (fun config ->
      let p = Driver.prepare ~config ~sanitize benign_pool in
      fun () -> ignore (Driver.run_prepared ~max_steps:e12_budget p))
    overhead_configs

(* Best-of-[blocks] time of each side, where a side is one run thunk per
   config. A block runs every config [reps] times on every side, the
   sides alternating run by run (and rotating which goes first), each run
   timed on its own and added to its side's block total. So the sides of
   a block share the same stretch of host speed down to one run: on a
   shared host whose speed swings between regimes within milliseconds,
   whole-pass blocks let one side's best block land in a fast stretch
   the other side never saw. Block 0 only warms up: first-touch costs
   and heap growth land there, not in a timed block. *)
let best_of_blocks ?(reps = 32) ?(blocks = 12) sides =
  let sides = Array.of_list (List.map Array.of_list sides) in
  let n = Array.length sides in
  let configs = Array.length sides.(0) in
  let best = Array.make n Float.infinity in
  let total = Array.make n 0. in
  for block = 0 to blocks do
    Array.fill total 0 n 0.;
    for r = 0 to reps - 1 do
      for c = 0 to configs - 1 do
        for i = 0 to n - 1 do
          let k = (r + c + i) mod n in
          let t0 = Clock.now_ns () in
          sides.(k).(c) ();
          total.(k) <- total.(k) +. Clock.elapsed_s ~a:t0 ~b:(Clock.now_ns ())
        done
      done
    done;
    if block > 0 then
      Array.iteri (fun k t -> best.(k) <- Float.min best.(k) t) total
  done;
  Array.to_list best

let ratio num den = if den > 0. then num /. den else 1.

let overhead ?reps ?blocks () =
  assert (not (Telemetry.enabled ()));
  match
    best_of_blocks ?reps ?blocks
      [ baseline_runs (); driver_runs ~sanitize:false ]
  with
  | [ b; p ] ->
    { ov_baseline_s = b; ov_production_s = p; ov_ratio = ratio p b }
  | _ -> assert false

(* Completeness: every catalogue scenario under defenses off and fully
   on, traced. The run's machine events are the ground truth; the trace
   must contain an instant per event (matched by kind and count) inside
   a driver "run" span. *)
let e13_completeness () =
  let count_by key xs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun x ->
        let k = key x in
        Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
      xs;
    tbl
  in
  let rows =
    List.concat_map
      (fun (a : Catalog.t) ->
        List.map
          (fun (config : Config.t) ->
            Trace.reset ();
            let r = Driver.run ~config ~max_steps:e12_budget a in
            let evs = Trace.events () in
            let instants =
              List.filter_map
                (fun (e : Trace.event) ->
                  if e.Trace.ev_instant && e.Trace.ev_cat = "machine" then
                    Some e.Trace.ev_name
                  else None)
                evs
            in
            let machine_events = r.Driver.outcome.Outcome.events in
            let want = count_by Event.kind machine_events in
            let got = count_by Fun.id instants in
            let complete =
              Hashtbl.fold
                (fun k n acc ->
                  acc && Option.value (Hashtbl.find_opt got k) ~default:0 = n)
                want true
              && List.exists
                   (fun (e : Trace.event) ->
                     (not e.Trace.ev_instant) && e.Trace.ev_name = "run")
                   evs
            in
            let blocking_seen =
              (not (Outcome.blocked r.Driver.outcome))
              || List.exists
                   (fun ev ->
                     Event.is_blocking ev
                     && List.mem (Event.kind ev) instants)
                   machine_events
              (* StackGuard terminations block without a Canary event only
                 in principle; the canary event is always emitted, so a
                 blocked run with no blocking event is a completeness
                 failure unless the status alone carried it *)
              || machine_events = []
            in
            {
              tr_scenario = a.Catalog.id;
              tr_config = config.Config.name;
              tr_events = List.length machine_events;
              tr_complete = complete;
              tr_blocking_seen = blocking_seen;
            })
          [ Config.none; Config.full ])
      All.attacks
  in
  let dropped = Trace.dropped () in
  (rows, dropped)

let e13 ?reps ?blocks () =
  Telemetry.disable ();
  let t13_overhead = overhead ?reps ?blocks () in
  let t13_rows, t13_dropped =
    Telemetry.with_enabled (fun () -> e13_completeness ())
  in
  Trace.reset ();
  { t13_overhead; t13_rows; t13_dropped }

let pp_e13 ppf r =
  Fmt.pf ppf "@[<v>E13 — telemetry: disabled overhead + trace completeness@,%s@,"
    (String.make 100 '-');
  Fmt.pf ppf
    "overhead: baseline %.4fs, instrumented-disabled %.4fs  (ratio %.3f, gate \
     <= 1.05)@,"
    r.t13_overhead.ov_baseline_s r.t13_overhead.ov_production_s
    r.t13_overhead.ov_ratio;
  let incomplete =
    List.filter (fun t -> not (t.tr_complete && t.tr_blocking_seen)) r.t13_rows
  in
  List.iter
    (fun t ->
      Fmt.pf ppf "%-16s %-14s %3d events  INCOMPLETE TRACE@," t.tr_scenario
        t.tr_config t.tr_events)
    incomplete;
  Fmt.pf ppf
    "=> %d/%d scenario traces complete (every machine event mirrored as a \
     span-scoped instant), %d ring drops@]"
    (List.length r.t13_rows - List.length incomplete)
    (List.length r.t13_rows) r.t13_dropped

(* ------------------------------------------------------------------ *)
(* E14 (extension): the PNASan oracle-completeness gate                  *)

module San = Pna_sanitizer.Sanitizer

(* Per-attack expectation: the kind of the *first* recorded violation
   under defenses off, i.e. where the oracle places the first corrupting
   access. [None] marks the two documented exclusions — L23's leak and
   OOM DoS never touch memory they do not own, so a memory-state oracle
   has nothing to flag (E6's accounting and the step budget catch them
   instead). *)
let e14_expected =
  [
    ("L03-strobj", Some "placement-overflow");
    ("L03-misalign", Some "placement-overflow");
    ("L05-remote", Some "placement-overflow");
    ("L06-copyloop", Some "placement-overflow");
    ("L07-copyctor", Some "placement-overflow");
    ("L08-indirect", Some "placement-overflow");
    ("L10-internal", Some "placement-overflow");
    ("L11-bss", Some "placement-overflow");
    ("L12-heap", Some "meta-write");
    ("L13-ret", Some "stack-smash");
    ("L13-bypass", Some "stack-smash");
    ("L13-inject", Some "stack-smash");
    ("L14-bssvar", Some "placement-overflow");
    ("L15-var", Some "placement-overflow");
    ("L15-dos", Some "placement-overflow");
    ("L15-skip", Some "placement-overflow");
    ("L16-member", Some "placement-overflow");
    ("VT-bss", Some "placement-overflow");
    ("VT-stack", Some "placement-overflow");
    ("L17-funptr", Some "placement-overflow");
    ("L18-varptr", Some "placement-overflow");
    ("L19-arrstack", Some "placement-overflow");
    ("L20-arrbss", Some "placement-overflow");
    ("L21-leakarr", Some "stale-read");
    ("L22-leakobj", Some "stale-read");
    ("L23-memleak", None);
    ("L23-oom", None);
    ("SER-object", Some "placement-overflow");
    ("SER-count", Some "placement-overflow");
  ]

type e14_row = {
  o_scenario : string;
  o_expected : string option;  (** expected first-violation kind *)
  o_first : string option;  (** observed first-violation kind *)
  o_records : int;
  o_verdict_same : bool;
      (** the sanitized run's verdict equals the unsanitized run's — the
          oracle observes, never perturbs *)
}

let e14_row_ok r = r.o_first = r.o_expected && r.o_verdict_same

type e14_clean_row = {
  cl_scenario : string;
  cl_records : int;  (** false positives — must be 0 *)
}

type e14_report = {
  t14_rows : e14_row list;
  t14_clean : e14_clean_row list;
  t14_overhead : e13_overhead;
      (** same gate shape as E13: the sanitizer-capable driver path with
          the oracle *not* attached vs the inline baseline *)
  t14_enabled_ratio : float;
      (** informative: oracle attached vs not, same driver path *)
}

(* Completeness sweep: every catalogue attack under defenses off, oracle
   attached. The first recorded violation is where the oracle says the
   attack first corrupts memory; the verdict must match the plain run. *)
let e14_completeness () =
  List.map
    (fun (a : Catalog.t) ->
      let plain =
        Driver.run ~config:Config.none ~max_steps:e12_budget ~sanitize:false a
      in
      let r = Driver.run ~config:Config.none ~max_steps:e12_budget ~sanitize:true a in
      let expected =
        match List.assoc_opt a.Catalog.id e14_expected with
        | Some e -> e
        | None -> Some "unlisted-attack"
      in
      {
        o_scenario = a.Catalog.id;
        o_expected = expected;
        o_first =
          (match r.Driver.violations with
          | [] -> None
          | v :: _ -> Some (San.kind_name v.San.v_kind));
        o_records = List.length r.Driver.violations;
        o_verdict_same =
          r.Driver.verdict.Catalog.success
          = plain.Driver.verdict.Catalog.success;
      })
    All.attacks

(* False-positive sweep: every §5.1 hardened twin plus the benign
   workloads, oracle attached. Anything recorded here is a false
   positive. *)
let e14_clean () =
  let hardened =
    List.filter_map
      (fun (a : Catalog.t) ->
        match Driver.run_hardened ~config:Config.none ~sanitize:true a with
        | Some (_, _, vs) ->
          Some
            { cl_scenario = a.Catalog.id ^ "+hardened";
              cl_records = List.length vs }
        | None -> None)
      All.attacks
  in
  let workload name prog ~n =
    let m = Interp.load ~config:Config.none prog in
    let san = San.attach ~scenario:name (Machine.mem m) in
    Machine.attach_sanitizer m (Some san);
    Machine.set_input ~ints:[ n ] ~strings:[] m;
    let o = Vm.run ~max_steps:50_000_000 m (Vm.load prog) ~entry:"main" in
    San.seal san;
    if not (Outcome.exited_normally o) then
      { cl_scenario = name; cl_records = max 1 (List.length (San.violations san)) }
    else { cl_scenario = name; cl_records = List.length (San.violations san) }
  in
  hardened
  @ [
      workload "pool-server" Workloads.pool_server ~n:64;
      workload "heap-churn" Workloads.heap_churn ~n:64;
    ]

(* Overhead: E13's estimator, whose production pass already carries
   the unattached observer hook on every checked byte access — the cost
   this gate bounds at 5%. The enabled ratio (oracle attached vs not,
   same driver path, same estimator) is reported for scale but not
   gated: shadow lookups on every access are the price of the oracle. *)
let e14 ?reps ?blocks () =
  Telemetry.disable ();
  let t14_overhead = overhead ?reps ?blocks () in
  let t14_enabled_ratio =
    match
      best_of_blocks ?reps ?blocks
        [ driver_runs ~sanitize:false; driver_runs ~sanitize:true ]
    with
    | [ plain; sanitized ] -> ratio sanitized plain
    | _ -> assert false
  in
  { t14_rows = e14_completeness (); t14_clean = e14_clean (); t14_overhead;
    t14_enabled_ratio }

let pp_e14 ppf r =
  Fmt.pf ppf
    "@[<v>E14 — PNASan oracle completeness: every attack flagged, no false \
     positives@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun row ->
      let show = function None -> "-" | Some k -> k in
      Fmt.pf ppf "%-14s first violation %-20s (expected %-20s) %d record(s)%s%s@,"
        row.o_scenario (show row.o_first) (show row.o_expected) row.o_records
        (if row.o_first = row.o_expected then "" else "  MISMATCH")
        (if row.o_verdict_same then "" else "  VERDICT PERTURBED"))
    r.t14_rows;
  let dirty = List.filter (fun c -> c.cl_records > 0) r.t14_clean in
  List.iter
    (fun c ->
      Fmt.pf ppf "%-24s %d FALSE POSITIVE record(s)@," c.cl_scenario
        c.cl_records)
    dirty;
  let expected_flagged =
    List.length (List.filter (fun r -> r.o_expected <> None) r.t14_rows)
  in
  Fmt.pf ppf
    "overhead: baseline %.4fs, driver-unsanitized %.4fs (ratio %.3f, gate <= \
     1.05); oracle-attached %.1fx@,"
    r.t14_overhead.ov_baseline_s r.t14_overhead.ov_production_s
    r.t14_overhead.ov_ratio r.t14_enabled_ratio;
  Fmt.pf ppf
    "=> %d/%d attacks flagged as expected (%d oracle-visible), %d/%d clean \
     runs flag-free@]"
    (List.length (List.filter e14_row_ok r.t14_rows))
    (List.length r.t14_rows) expected_flagged
    (List.length r.t14_clean - List.length dirty)
    (List.length r.t14_clean)

(* ------------------------------------------------------------------ *)
(* E15 (extension): the fast-path equivalence + scaling gate             *)

module Vmem = Pna_vmem.Vmem
module Segment = Pna_vmem.Segment
module Perm = Pna_vmem.Perm

(* A hook that observes nothing: arming it disables every Vmem fast path
   (the gate requires no observer) without perturbing a single byte, so
   the same prepared scenario can be driven down both paths. *)
let byte_path_observer : Vmem.access_hook = fun ~access:_ ~addr:_ ~taint:_ -> ()

type e15_equiv_row = {
  fq_scenario : string;
  fq_config : string;
  fq_same_outcome : bool;  (** status, events, output, steps all equal *)
  fq_same_verdict : bool;
  fq_same_accounting : bool;
      (** per-run deltas of reads/writes/taint-writes/faults equal *)
}

let e15_equiv_row_ok r = r.fq_same_outcome && r.fq_same_verdict && r.fq_same_accounting

type e15_speed = {
  fs_fast_ns : float;  (** per memory op, u32-heavy loop, fast path *)
  fs_byte_ns : float;  (** same loop with the no-op observer armed *)
  fs_ratio : float;  (** byte / fast — the live fast-path payoff *)
}

type e15_scale_row = {
  sc_jobs : int;  (** effective worker-domain count *)
  sc_requests : int;
  sc_seconds : float;
}

type e15_report = {
  t15_rows : e15_equiv_row list;
  t15_pool_agree : bool;
      (** 4-domain pooled replies over the catalogue equal the sequential
          driver's — same gate shape as E12, re-checked here because the
          fast path and the sharded service both ride under it *)
  t15_speed : e15_speed;
  t15_scale : e15_scale_row list;
  t15_cores : int;  (** [Domain.recommended_domain_count] on this host *)
}

(* Fast path vs byte path: every catalogue attack under defenses off and
   fully on, driven twice from the same prepared image — once plain (fast
   paths engage wherever an access sits in one segment), once with the
   no-op observer armed (every access takes the per-byte reference
   path). Outcomes must be structurally identical and the access
   accounting deltas must match byte for byte. *)
let e15_equivalence () =
  List.concat_map
    (fun (a : Catalog.t) ->
      List.map
        (fun (config : Config.t) ->
          let p = Driver.prepare ~config a in
          let mem = Machine.mem (Driver.reset p) in
          let sample () =
            ( Vmem.total_reads mem,
              Vmem.total_writes mem,
              Vmem.total_taint_writes mem,
              Vmem.total_faults mem )
          in
          let delta (r0, w0, t0, f0) (r1, w1, t1, f1) =
            (r1 - r0, w1 - w0, t1 - t0, f1 - f0)
          in
          let run () =
            let before = sample () in
            let r = Driver.run_prepared ~max_steps:e12_budget p in
            (r, delta before (sample ()))
          in
          Vmem.set_observer mem None;
          let fast, fast_d = run () in
          Vmem.set_observer mem (Some byte_path_observer);
          let byte, byte_d = run () in
          Vmem.set_observer mem None;
          {
            fq_scenario = a.Catalog.id;
            fq_config = config.Config.name;
            fq_same_outcome = fast.Driver.outcome = byte.Driver.outcome;
            fq_same_verdict =
              fast.Driver.verdict.Catalog.success
              = byte.Driver.verdict.Catalog.success;
            fq_same_accounting = fast_d = byte_d;
          })
        [ Config.none; Config.full ])
    All.attacks

(* The live u32-heavy microbenchmark: the same mixed read/write loop
   timed on the fast path and then with the no-op observer forcing the
   per-byte path. Unlike the bench harness numbers this ratio has no
   per-call scaffolding in it — it is the payoff the interpreter's inner
   loop actually sees. *)
let e15_speed ?(iters = 400_000) () =
  let v = Vmem.create () in
  ignore (Vmem.map v ~kind:Segment.Data ~base:0x1000 ~size:0x1000 ~perm:Perm.rw);
  let loop () =
    let acc = ref 0 in
    for i = 0 to iters - 1 do
      let addr = 0x1000 + (i land 0x3fe) * 4 in
      Vmem.write_u32 v addr (i land 0xffff);
      acc := !acc + Vmem.read_u32 v addr
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let best f =
    f ();
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let t0 = Clock.now_ns () in
      f ();
      best := Float.min !best (Clock.elapsed_s ~a:t0 ~b:(Clock.now_ns ()))
    done;
    !best
  in
  let per_op s = s *. 1e9 /. float_of_int (2 * iters) in
  let fast_s = best loop in
  Vmem.set_observer v (Some byte_path_observer);
  let byte_s = best loop in
  Vmem.set_observer v None;
  {
    fs_fast_ns = per_op fast_s;
    fs_byte_ns = per_op byte_s;
    fs_ratio = (if fast_s > 0. then byte_s /. fast_s else Float.infinity);
  }

(* Domain scaling over the E12 stream, memoization off so every request
   is real work. Wall-clock at each worker count; the gate is applied by
   [e15_ok] relative to what the host can actually parallelize. *)
let e15_scaling ~repeats ~scale () =
  let stream = e12_stream ~repeats in
  List.map
    (fun n ->
      let svc = Service.create ~jobs:n ~memo:false () in
      let (_ : Service.reply list), secs =
        Service.timed (fun () -> Service.run_batch svc stream)
      in
      let row =
        { sc_jobs = Service.jobs svc; sc_requests = List.length stream;
          sc_seconds = secs }
      in
      Service.shutdown svc;
      row)
    scale

let e15 ?(iters = 400_000) ?(scale = [ 1; 2; 4 ]) () =
  let verify_jobs =
    Service.matrix_jobs
      ~configs:[ Config.none; Config.full ]
      ~max_steps:e12_budget ()
  in
  let sequential =
    List.map
      (fun (j : Service.job) ->
        Service.reply_of_result
          (Driver.run ~config:j.Service.j_config ~max_steps:e12_budget
             j.Service.j_attack))
      verify_jobs
  in
  let svc = Service.create ~jobs:4 () in
  let pooled = Service.run_batch svc verify_jobs in
  Service.shutdown svc;
  let strip (r : Service.reply) = { r with Service.r_cached = false } in
  {
    t15_rows = e15_equivalence ();
    t15_pool_agree = List.map strip pooled = List.map strip sequential;
    t15_speed = e15_speed ~iters ();
    t15_scale = e15_scaling ~repeats:16 ~scale ();
    t15_cores = Domain.recommended_domain_count ();
  }

let pp_e15 ppf r =
  Fmt.pf ppf
    "@[<v>E15 — Vmem fast path equivalent and paying; service scaling@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun row ->
      if not (e15_equiv_row_ok row) then
        Fmt.pf ppf "%-14s %-14s DIVERGES%s%s%s@," row.fq_scenario row.fq_config
          (if row.fq_same_outcome then "" else "  [outcome]")
          (if row.fq_same_verdict then "" else "  [verdict]")
          (if row.fq_same_accounting then "" else "  [accounting]"))
    r.t15_rows;
  Fmt.pf ppf
    "fast path == byte path on %d/%d prepared runs (outcome, verdict, access \
     accounting)@,\
     pooled (4 domains) %s the sequential driver@,\
     u32 loop: fast %.1f ns/op, byte path %.1f ns/op  (%.1fx, gate >= 3)@,"
    (List.length (List.filter e15_equiv_row_ok r.t15_rows))
    (List.length r.t15_rows)
    (if r.t15_pool_agree then "matches" else "DIVERGES FROM")
    r.t15_speed.fs_fast_ns r.t15_speed.fs_byte_ns r.t15_speed.fs_ratio;
  List.iter
    (fun s ->
      Fmt.pf ppf "scaling: jobs=%d  %4d req in %6.3fs  (%8.0f req/s)@,"
        s.sc_jobs s.sc_requests s.sc_seconds
        (if s.sc_seconds > 0. then float_of_int s.sc_requests /. s.sc_seconds
         else Float.infinity))
    r.t15_scale;
  let gate =
    match r.t15_scale with
    | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      Fmt.str "%d-domain speedup %.2fx over 1 domain (%d core(s) available)"
        last.sc_jobs
        (if last.sc_seconds > 0. then first.sc_seconds /. last.sc_seconds
         else Float.infinity)
        r.t15_cores
    | _ -> Fmt.str "scaling sweep skipped (%d core(s) available)" r.t15_cores
  in
  Fmt.pf ppf "=> %s@]" gate

(* ------------------------------------------------------------------ *)
(* E16 (extension): the wire gate — load, protocol fuzz, chaos soak      *)

module Server = Pna_net.Server
module Nclient = Pna_net.Client
module Nframe = Pna_net.Frame
module Loadgen = Pna_net.Loadgen
module Metrics = Pna_telemetry.Metrics

type e16_fuzz = {
  nf_frames : int;  (** malformed frames sent *)
  nf_rejected : int;  (** answered with a classified [Reply_error] *)
  nf_closed : int;  (** connection closed without a reply (EOF cases) *)
  nf_hung : int;  (** client receive timeouts — the gate requires 0 *)
  nf_alive : bool;  (** the server answers a ping after the storm *)
  nf_classes : (string * int) list;
      (** server-side [pna_net_protocol_errors_total] per class *)
}

(* One malformed frame per connection (the server hangs up after a
   protocol error), raw sockets so nothing on the client side repairs
   the damage before it hits the wire. *)
let e16_fuzz ~host ~port ~registry ~seed () =
  let frames = 120 in
  let rng = Random.State.make [| 0xf022; seed |] in
  let le32 b off v =
    for i = 0 to 3 do
      Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
    done
  in
  let fix_crc b =
    let crc =
      Pna_net.Crc32.string
        ~crc:(Pna_net.Crc32.string (Bytes.sub_string b 0 12))
        ~off:Nframe.header_len
        ~len:(Bytes.length b - Nframe.header_len)
        (Bytes.to_string b)
    in
    le32 b 12 crc
  in
  let base () =
    Bytes.of_string
      (Nframe.encode
         (Nframe.Request
            {
              Nframe.rq_corr = 7;
              rq_attack = "overflow-vptr";
              rq_config = "none";
              rq_chaos_seed = None;
              rq_max_steps = Some 1000;
              rq_sanitize = false;
              rq_engine = `Bytecode;
              rq_trace = None;
            }))
  in
  let rejected = ref 0 and closed = ref 0 and hung = ref 0 in
  for _ = 1 to frames do
    let truncate_close = ref false in
    let frame =
      let b = base () in
      match Random.State.int rng 6 with
      | 0 ->
        (* single bit flip anywhere lands in Bad_crc (or an earlier
           header check) — never an uncaught exception *)
        let i = Random.State.int rng (Bytes.length b) in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)));
        b
      | 1 ->
        truncate_close := true;
        Bytes.sub b 0 (1 + Random.State.int rng (Bytes.length b - 1))
      | 2 ->
        le32 b 8 0x7fff_ffff;
        (* inflated length must fail fast, CRC or no CRC *)
        b
      | 3 ->
        let g = Bytes.create 32 in
        for i = 0 to 31 do
          Bytes.set g i (Char.chr (Random.State.int rng 256))
        done;
        g
      | 4 ->
        Bytes.set b 4 '\x09';
        fix_crc b;
        (* CRC-valid frame from the future: Bad_version *)
        b
      | _ ->
        Bytes.set b 5 '\xee';
        fix_crc b;
        (* CRC-valid unknown kind: Bad_kind *)
        b
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
       let rec write_all off =
         if off < Bytes.length frame then
           write_all (off + Unix.write fd frame off (Bytes.length frame - off))
       in
       write_all 0;
       if !truncate_close then incr closed
       else begin
         let buf = Bytes.create 4096 and acc = ref "" and decided = ref false in
         while not !decided do
           match Nframe.decode !acc with
           | Nframe.Msg (Nframe.Reply_error _, _) ->
             incr rejected;
             decided := true
           | Nframe.Msg (_, used) ->
             acc := String.sub !acc used (String.length !acc - used)
           | Nframe.Fail _ ->
             incr closed;
             decided := true
           | Nframe.Need _ -> (
             match Unix.read fd buf 0 4096 with
             | 0 ->
               incr closed;
               decided := true
             | n -> acc := !acc ^ Bytes.sub_string buf 0 n
             | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
               ->
               incr hung;
               decided := true)
         done
       end
     with Unix.Unix_error _ -> incr closed);
    try Unix.close fd with Unix.Unix_error _ -> ()
  done;
  let alive =
    match Nclient.connect ~timeout_s:5. ~host ~port () with
    | Error _ -> false
    | Ok c ->
      let ok = Nclient.ping c 42 = Ok () in
      Nclient.close c;
      ok
  in
  {
    nf_frames = frames;
    nf_rejected = !rejected;
    nf_closed = !closed;
    nf_hung = !hung;
    nf_alive = alive;
    nf_classes =
      List.filter_map
        (fun cls ->
          let c =
            Metrics.counter ~labels:[ ("class", cls) ] registry
              "pna_net_protocol_errors_total"
          in
          match Metrics.count c with 0 -> None | n -> Some (cls, n))
        [ "magic"; "version"; "kind"; "oversize"; "crc"; "payload" ];
  }

(* The in-process mirror of one wire request: exactly what the server's
   service executes, minus the socket — the comparison point for the
   verdict-equivalence half of the gate. *)
let e16_expected_sig ~max_steps (s : Loadgen.spec) =
  match
    ( List.find_opt
        (fun (a : Catalog.t) -> a.Catalog.id = s.Loadgen.s_attack)
        All.attacks,
      List.find_opt
        (fun (c : Config.t) -> c.Config.name = s.Loadgen.s_config)
        Config.all )
  with
  | Some attack, Some config ->
    let reply =
      match s.Loadgen.s_chaos_seed with
      | None ->
        (* the load generator requests sanitize=false, so pin it here
           too — the PNA_SANITIZE=1 test pass must not skew the mirror *)
        Service.reply_of_result
          (Driver.run ~config ~max_steps ~sanitize:false attack)
      | Some seed ->
        let p = Driver.prepare ~config attack in
        let s =
          Driver.supervise ~config ~max_steps
            ~reload:(fun () -> Driver.reset p)
            ~plan:(Plan.generate ~seed ()) attack
        in
        Service.reply_of_supervised ~chaos_seed:seed s
    in
    Some (Loadgen.signature (Nframe.rep_of_reply reply))
  | _ -> None

(* Compare every wire-sampled reply signature against the in-process
   driver: (agreeing, total). *)
let e16_verdict_check ~max_steps ~distinct ~seed (r : Loadgen.result) =
  let specs = Loadgen.specs ~distinct ~seed () in
  let expected = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      let k = Loadgen.spec_key s in
      if not (Hashtbl.mem expected k) then
        Hashtbl.add expected k (e16_expected_sig ~max_steps s))
    specs;
  List.fold_left
    (fun (agree, total) (key, sig_) ->
      match Hashtbl.find_opt expected key with
      | Some (Some exp) when exp = sig_ -> (agree + 1, total + 1)
      | _ -> (agree, total + 1))
    (0, 0) r.Loadgen.lg_samples

type e16_report = {
  t16_load : Loadgen.result;
  t16_fuzz : e16_fuzz;
  t16_chaos : Loadgen.result;
  t16_agree : int;  (** wire reply signatures matching the in-process driver *)
  t16_total : int;  (** ... out of this many distinct sampled specs *)
  t16_cores : int;
}

let lg_rejected_count (r : Loadgen.result) =
  List.fold_left (fun a (_, n) -> a + n) 0 r.Loadgen.lg_rejected

(* every request ends in exactly one bucket *)
let lg_accounted (r : Loadgen.result) =
  r.Loadgen.lg_served + r.Loadgen.lg_shed_final + lg_rejected_count r
  + r.Loadgen.lg_hung
  = r.Loadgen.lg_n

let e16 () =
  let seed = 16 in
  let cores = Domain.recommended_domain_count () in
  let svc = Service.create () in
  let server =
    Server.start
      ~config:
        (* idle timeout well under the fuzz client's 5s read timeout, so
           a half-sent frame is visibly reaped, never mistaken for a
           hang *)
        { Server.default_config with max_inflight = 128; idle_timeout_s = 2. }
      svc
  in
  let host = "127.0.0.1" and port = Server.port server in
  let conns = max 2 (min 8 cores) in
  let distinct = 48 in
  let load = Loadgen.run ~conns ~distinct ~host ~port ~n:20_000 ~seed () in
  let fuzz =
    e16_fuzz ~host ~port ~registry:(Server.registry server)
      ~seed ()
  in
  let chaos =
    Loadgen.run ~chaos:true ~conns:2 ~distinct ~host ~port ~n:600
      ~seed:(seed + 7) ()
  in
  Server.stop server;
  Service.shutdown svc;
  (* what the server clamps each request's deadline to: the spec budget
     is below the default cap, so it passes through unchanged *)
  let max_steps =
    min Loadgen.default_max_steps Server.default_config.Server.max_steps_cap
  in
  let a1, t1 = e16_verdict_check ~max_steps ~distinct ~seed load in
  let a2, t2 = e16_verdict_check ~max_steps ~distinct ~seed:(seed + 7) chaos in
  {
    t16_load = load;
    t16_fuzz = fuzz;
    t16_chaos = chaos;
    t16_agree = a1 + a2;
    t16_total = t1 + t2;
    t16_cores = cores;
  }

(* The latency ceilings are deliberately generous multiples of the
   committed 1-core BENCH_net.json baseline (p50 ~0.9ms warm, ~116ms
   under the mixed load) — they are not a perf benchmark but a collapse
   detector: a retry death-spiral or a stalled select loop pushes p99
   past seconds, and that must fail the gate on any host. *)
let e16_p50_ceiling_us = 1_000_000.
let e16_p99_ceiling_us = 5_000_000.

let pp_e16 ppf r =
  Fmt.pf ppf
    "@[<v>E16 — the wire gate: load, protocol fuzz, chaos soak@,%s@,\
     load:  %a@,\
     fuzz:  %d malformed frames -> %d rejected / %d closed / %d hung; server \
     %s@,"
    (String.make 100 '-') Loadgen.pp r.t16_load r.t16_fuzz.nf_frames
    r.t16_fuzz.nf_rejected r.t16_fuzz.nf_closed r.t16_fuzz.nf_hung
    (if r.t16_fuzz.nf_alive then "alive" else "DEAD");
  if r.t16_fuzz.nf_classes <> [] then
    Fmt.pf ppf "       classified server-side: %a@,"
      Fmt.(list ~sep:(any "  ") (pair ~sep:(any "=") string int))
      r.t16_fuzz.nf_classes;
  Fmt.pf ppf
    "chaos: %a@,verdicts: %d/%d sampled wire replies identical to the \
     in-process driver@,\
     => every request in one bucket: load %b, chaos %b; latency ceilings \
     p50 <= %.0f us, p99 <= %.0f us; %d core(s)@]"
    Loadgen.pp r.t16_chaos r.t16_agree r.t16_total
    (lg_accounted r.t16_load) (lg_accounted r.t16_chaos)
    e16_p50_ceiling_us e16_p99_ceiling_us r.t16_cores

(* ------------------------------------------------------------------ *)
(* E18: wire-to-verdict observability — distributed trace completeness,
   forensic-bundle fidelity, wire back-compat, disabled overhead.       *)

module Flight = Pna_flight.Flight
module Jsonx = Pna_telemetry.Jsonx

type e18_wire = {
  w_traced : int;  (** sampled requests the load generator traced *)
  w_traces : int;  (** distinct trace ids found in the merged export *)
  w_roots_ok : bool;
      (** every trace has exactly one root span, and it is the client's *)
  w_orphans : int;  (** spans whose parent id resolves to no span — must be 0 *)
  w_layers_ok : bool;
      (** client-request, server request, queue-wait and job spans all
          present in every trace *)
  w_queue_ok : bool;  (** queue-wait never outlasts its request span *)
  w_dropped : int;  (** trace ring drops during the run — must be 0 *)
}

(* One span as read back out of the merged Chrome document: linkage
   lives entirely in the exported args, which is the property under
   test — a merge re-homes pids but must preserve the span tree. *)
type e18_span = {
  sp_trace : int;
  sp_span : int;
  sp_parent : int;
  sp_name : string;
  sp_dur : float;
}

let e18_spans doc =
  let evs =
    match Jsonx.member "traceEvents" doc with
    | Some (Jsonx.List l) -> l
    | _ -> []
  in
  let arg ev k =
    match Jsonx.member "args" ev with
    | Some a -> Jsonx.member k a
    | None -> None
  in
  List.filter_map
    (fun ev ->
      match (arg ev "trace_id", arg ev "span_id") with
      | Some (Jsonx.Int sp_trace), Some (Jsonx.Int sp_span) ->
        Some
          {
            sp_trace;
            sp_span;
            sp_parent =
              (match arg ev "parent_id" with
              | Some (Jsonx.Int p) -> p
              | _ -> 0);
            sp_name =
              Option.value ~default:""
                (Option.bind (Jsonx.member "name" ev) Jsonx.to_str);
            sp_dur =
              Option.value ~default:0.
                (Option.bind (Jsonx.member "dur" ev) Jsonx.to_float);
          }
      | _ -> None)
    evs

(* Connectivity over the merged document: group spans by trace id and
   demand, per trace, one client root, zero orphans, all four layers,
   and queue-waits bounded by the longest request span. *)
let e18_connectivity spans =
  let groups : (int, e18_span list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace groups s.sp_trace
        (s :: Option.value ~default:[] (Hashtbl.find_opt groups s.sp_trace)))
    spans;
  let traces = ref 0
  and roots_ok = ref true
  and orphans = ref 0
  and layers_ok = ref true
  and queue_ok = ref true in
  Hashtbl.iter
    (fun _ group ->
      incr traces;
      let ids = List.map (fun s -> s.sp_span) group in
      let roots = List.filter (fun s -> s.sp_parent = 0) group in
      (match roots with
      | [ r ] -> if r.sp_name <> "client-request" then roots_ok := false
      | _ -> roots_ok := false);
      List.iter
        (fun s ->
          if s.sp_parent <> 0 && not (List.mem s.sp_parent ids) then
            incr orphans)
        group;
      let has n = List.exists (fun s -> s.sp_name = n) group in
      if not (has "client-request" && has "request" && has "queue-wait" && has "job")
      then layers_ok := false;
      let max_req =
        List.fold_left
          (fun acc s -> if s.sp_name = "request" then Float.max acc s.sp_dur else acc)
          0. group
      in
      List.iter
        (fun s ->
          if s.sp_name = "queue-wait" && s.sp_dur > max_req then
            queue_ok := false)
        group)
    groups;
  (!traces, !roots_ok, !orphans, !layers_ok, !queue_ok)

(* The in-process stand-in for two cooperating processes: client spans
   (the load generator's domains) and server spans are exported as two
   separate Chrome documents, then re-merged with {!Trace.merge_chrome}
   — exactly what `pna trace --merge` does to files from two real
   processes. Linkage must survive because it rides in span args. *)
let e18_split_merge () =
  let doc = Trace.chrome_json () in
  let evs =
    match Jsonx.member "traceEvents" doc with
    | Some (Jsonx.List l) -> l
    | _ -> []
  in
  let tid ev =
    match Option.bind (Jsonx.member "tid" ev) Jsonx.to_int with
    | Some t -> t
    | None -> -1
  in
  let is_client_ev ev =
    Option.bind (Jsonx.member "name" ev) Jsonx.to_str = Some "client-request"
  in
  let client_tracks =
    List.sort_uniq compare (List.map tid (List.filter is_client_ev evs))
  in
  let client, server =
    List.partition (fun ev -> List.mem (tid ev) client_tracks) evs
  in
  Trace.merge_chrome
    [
      Jsonx.Obj [ ("traceEvents", Jsonx.List client) ];
      Jsonx.Obj [ ("traceEvents", Jsonx.List server) ];
    ]

let e18_wire ?(requests = 96) ?(sample_every = 4) ?(seed = 18) () =
  assert (Telemetry.enabled ());
  Trace.reset ();
  let svc = Service.create ~jobs:2 () in
  let server = Server.start svc in
  let host = "127.0.0.1" and port = Server.port server in
  let load =
    Loadgen.run ~conns:2 ~window:8 ~distinct:12 ~sample_every ~host ~port
      ~n:requests ~seed ()
  in
  Server.stop server;
  Service.shutdown svc;
  let dropped = Trace.dropped () in
  let merged = e18_split_merge () in
  let traces, roots_ok, orphans, layers_ok, queue_ok =
    e18_connectivity (e18_spans merged)
  in
  {
    w_traced = load.Loadgen.lg_traced;
    w_traces = traces;
    w_roots_ok = roots_ok;
    w_orphans = orphans;
    w_layers_ok = layers_ok;
    w_queue_ok = queue_ok;
    w_dropped = dropped;
  }

type e18_forensic_row = {
  fr_id : string;
  fr_live : (string * int) option;
      (** (site, faulting address) of the live PNASan first violation *)
  fr_bundle : (string * int) option;  (** same, read back from verdict.json *)
  fr_match : bool;
}

let e18_forensics ?dir () =
  let dir =
    match dir with
    | Some d -> d
    | None ->
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "pna-e18-forensics-%d" (Unix.getpid ()))
  in
  List.map
    (fun (a : Catalog.t) ->
      let r, _session, bundle = Driver.run_forensic ~dir a in
      let fr_live =
        match r.Driver.violations with
        | v :: _ -> Some (v.San.v_site, v.San.v_addr)
        | [] -> None
      in
      let fr_bundle =
        match Flight.load_verdict bundle with
        | Error _ -> None
        | Ok j -> (
          match Jsonx.member "first_violation" j with
          | Some (Jsonx.Obj _ as f) -> (
            match (Jsonx.member "site" f, Jsonx.member "addr" f) with
            | Some (Jsonx.Str s), Some (Jsonx.Int addr) -> Some (s, addr)
            | _ -> None)
          | _ -> None)
      in
      { fr_id = a.Catalog.id; fr_live; fr_bundle; fr_match = fr_live = fr_bundle })
    All.attacks

type e18_compat = {
  c_v1_versions : bool;
      (** every pre-trace message kind still encodes as version 1 —
          untraced traffic is byte-compatible with old decoders *)
  c_v1_roundtrip : bool;  (** ... and decodes, with no trace context *)
  c_v2_roundtrip : bool;
      (** a traced request stamps version 2 and round-trips its context *)
  c_stats_roundtrip : bool;  (** the Stats pair round-trips as version 2 *)
}

let e18_compat () =
  let req trace =
    {
      Nframe.rq_corr = 5;
      rq_attack = "overflow-vptr";
      rq_config = "none";
      rq_chaos_seed = None;
      rq_max_steps = Some 1000;
      rq_sanitize = false;
      rq_engine = `Bytecode;
      rq_trace = trace;
    }
  in
  let rep =
    {
      Nframe.rp_corr = 5;
      rp_id = "overflow-vptr";
      rp_config = "none";
      rp_chaos_seed = None;
      rp_status = "exited";
      rp_success = true;
      rp_detail = "";
      rp_attempts = 1;
      rp_cached = false;
      rp_violations = 0;
    }
  in
  let v1_msgs =
    [
      Nframe.Request (req None);
      Nframe.Reply_ok rep;
      Nframe.Reply_shed { sh_corr = 5; sh_retry_after_ms = 10 };
      Nframe.Reply_error { er_corr = 5; er_message = "nope" };
      Nframe.Ping 9;
      Nframe.Pong 9;
    ]
  in
  let version_byte m = Char.code (Nframe.encode m).[4] in
  let roundtrips m =
    let enc = Nframe.encode m in
    match Nframe.decode enc with
    | Nframe.Msg (m', used) -> used = String.length enc && m' = m
    | _ -> false
  in
  let traced = Nframe.Request (req (Some (0xabc, 0xdef))) in
  {
    c_v1_versions = List.for_all (fun m -> version_byte m = 1) v1_msgs;
    c_v1_roundtrip = List.for_all roundtrips v1_msgs;
    c_v2_roundtrip = version_byte traced = 2 && roundtrips traced;
    c_stats_roundtrip =
      version_byte (Nframe.Stats_req 3) = 2
      && roundtrips (Nframe.Stats_req 3)
      && roundtrips (Nframe.Stats_rep { st_nonce = 3; st_payload = "x 1\n" });
  }

type e18_report = {
  t18_wire : e18_wire;
  t18_rows : e18_forensic_row list;
  t18_compat : e18_compat;
  t18_overhead : e13_overhead;
}

let e18 () =
  (* overhead first: it asserts telemetry is still off *)
  let t18_overhead = overhead () in
  let t18_wire =
    Telemetry.with_enabled (fun () -> e18_wire ())
  in
  let t18_rows = e18_forensics () in
  let t18_compat = e18_compat () in
  { t18_wire; t18_rows; t18_compat; t18_overhead }

let pp_e18 ppf r =
  let w = r.t18_wire in
  Fmt.pf ppf
    "@[<v>E18 — wire-to-verdict observability@,%s@,\
     wire: %d sampled requests traced -> %d trace(s) in the merged export@,\
    \      roots %s  orphans %d  layers %s  queue-wait bounded %b  ring \
     drops %d@,"
    (String.make 100 '-') w.w_traced w.w_traces
    (if w.w_roots_ok then "ok" else "BAD")
    w.w_orphans
    (if w.w_layers_ok then "complete" else "MISSING")
    w.w_queue_ok w.w_dropped;
  let matched = List.length (List.filter (fun x -> x.fr_match) r.t18_rows) in
  Fmt.pf ppf "forensics: %d/%d bundles name the live first corrupting access@,"
    matched (List.length r.t18_rows);
  List.iter
    (fun x ->
      if not x.fr_match then
        Fmt.pf ppf "  %-14s live %a  bundle %a@," x.fr_id
          Fmt.(option ~none:(any "-") (pair ~sep:(any "@@0x") string int))
          x.fr_live
          Fmt.(option ~none:(any "-") (pair ~sep:(any "@@0x") string int))
          x.fr_bundle)
    r.t18_rows;
  let c = r.t18_compat in
  Fmt.pf ppf
    "compat: v1 versions %b  v1 roundtrip %b  v2 roundtrip %b  stats %b@,\
     overhead: baseline %.4fs -> production %.4fs = %.3fx (gate 1.05)@,\
     => %d catalogue attack(s) with a live first violation@]"
    c.c_v1_versions c.c_v1_roundtrip c.c_v2_roundtrip c.c_stats_roundtrip
    r.t18_overhead.ov_baseline_s r.t18_overhead.ov_production_s
    r.t18_overhead.ov_ratio
    (List.length (List.filter (fun x -> x.fr_live <> None) r.t18_rows))

(* ------------------------------------------------------------------ *)
(* Pass/fail verdicts per experiment, so callers (the CLI in
   particular) can turn a regressed experiment into a non-zero exit. *)

let e1_ok rows =
  List.for_all (fun (r : Driver.result) -> r.Driver.verdict.Catalog.success) rows

let e2_e3_ok trials =
  match trials with
  | [ naive_none; naive_sg; sel_none; sel_sg ] ->
    naive_none.hijacked && naive_sg.detected && sel_none.hijacked
    && sel_sg.hijacked
    && not sel_sg.detected
  | _ -> false

let e4_ok rows =
  List.for_all
    (fun r ->
      if r.leak_config = "sanitize" then not r.secret_leaked
      else r.secret_leaked)
    rows

let e5_ok rows =
  (* work grows monotonically with the forced bound, ending in a DoS *)
  let rec mono = function
    | a :: (b :: _ as tl) -> a.steps <= b.steps && mono tl
    | _ -> true
  in
  mono rows
  && (match List.rev rows with
     | last :: _ -> (
       match last.status with Outcome.Timeout _ -> true | _ -> false)
     | [] -> false)

let e6_ok rows = List.for_all (fun r -> r.leaked = r.predicted) rows

let e7_ok rows =
  (* the placement checker dominates the legacy baseline and never flags
     a hardened twin *)
  List.for_all (fun r -> r.hardened_clean <> Some false) rows
  && List.for_all (fun r -> (not r.legacy) || r.ours) rows

let e8_matrix_ok matrix =
  (* with defenses off every attack wins; and a win never coexists with a
     defense claiming to have blocked that same run *)
  List.for_all
    (fun (_, cells) ->
      List.for_all
        (fun ((c : Config.t), cell) ->
          if c.Config.name = "none" then cell = Win else true)
        cells)
    matrix

let e8_overhead_ok rows =
  List.for_all (fun (_, status, _) -> match status with Outcome.Exited _ -> true | _ -> false) rows

let e9_ok rows =
  rows <> []
  && List.for_all (fun r -> (not r.ch_escaped) && r.ch_detect_ok) rows

let e10_ok t =
  t.f_exploited = 0 && t.directed_works && t.statically_flagged

let e11_ok rows = List.for_all (fun r -> r.residual_flagged) rows

let e12_ok r =
  (* parallel substitution is sound (identical verdicts) and the memo
     cache actually pays for itself on the repeated benign stream *)
  r.sr_agree && r.sr_memo_speedup >= 2.0

let e13_ok r =
  r.t13_overhead.ov_ratio <= 1.05
  && List.for_all (fun t -> t.tr_complete && t.tr_blocking_seen) r.t13_rows
  && r.t13_dropped = 0

let e14_ok r =
  List.for_all e14_row_ok r.t14_rows
  && List.for_all (fun c -> c.cl_records = 0) r.t14_clean
  && r.t14_overhead.ov_ratio <= 1.05

(* The scaling gate adapts to the host: with enough cores for the
   largest worker count the pool must actually be faster (2x at 4+
   domains now that rewinds are dirty-page blits and dispatch is
   per-worker deques, 1.2x at 2-3 — parallel overheads eat more of a
   2-way run); oversubscribed hosts (CI smoke on small runners, 1-core
   dev boxes) only have to bound the anti-scaling — domains that fight
   for one core may lose ground to context switches and GC rendezvous,
   but a healthy pool loses at most 2.5x, not the ~6x an untuned minor
   heap costs. *)
let e15_scale_ok ~cores rows =
  match rows with
  | first :: (_ :: _ as rest) ->
    let last = List.nth rest (List.length rest - 1) in
    let speedup =
      if last.sc_seconds > 0. then first.sc_seconds /. last.sc_seconds
      else Float.infinity
    in
    if cores >= last.sc_jobs then
      speedup >= (if last.sc_jobs >= 4 then 2.0 else 1.2)
    else speedup >= 1. /. 2.5
  | _ -> true

let e15_ok r =
  List.for_all e15_equiv_row_ok r.t15_rows
  && r.t15_pool_agree
  && r.t15_speed.fs_ratio >= 3.0
  && e15_scale_ok ~cores:r.t15_cores r.t15_scale

(* The wire gate: every request accounted for with none hung, no
   spurious rejections on the clean run, every malformed frame answered
   or closed with the server still alive, chaos-soaked replies
   signature-identical to the in-process driver, and a real latency
   distribution under the ceilings. *)
let e16_ok r =
  let load = r.t16_load and chaos = r.t16_chaos and fuzz = r.t16_fuzz in
  lg_accounted load && lg_accounted chaos
  && load.Loadgen.lg_hung = 0
  && chaos.Loadgen.lg_hung = 0
  && load.Loadgen.lg_sig_conflicts = 0
  && chaos.Loadgen.lg_sig_conflicts = 0
  && lg_rejected_count load = 0
  && load.Loadgen.lg_served > 0
  && chaos.Loadgen.lg_served > 0
  && fuzz.nf_hung = 0 && fuzz.nf_alive
  && fuzz.nf_rejected + fuzz.nf_closed = fuzz.nf_frames
  && r.t16_agree = r.t16_total && r.t16_total > 0
  && load.Loadgen.lg_p50_us > 0.
  && load.Loadgen.lg_p50_us <= load.Loadgen.lg_p99_us
  && load.Loadgen.lg_p50_us <= e16_p50_ceiling_us
  && load.Loadgen.lg_p99_us <= e16_p99_ceiling_us

(* The observability gate: every sampled request's spans merge into one
   connected tree with nothing dropped, every forensic bundle agrees
   with the live oracle on the first corrupting access, old frames
   still decode, and the disabled machinery stays within 5%. *)
let e18_ok r =
  let w = r.t18_wire and c = r.t18_compat in
  w.w_traced > 0 && w.w_traces = w.w_traced && w.w_roots_ok
  && w.w_orphans = 0 && w.w_layers_ok && w.w_queue_ok && w.w_dropped = 0
  && r.t18_rows <> []
  && List.for_all (fun x -> x.fr_match) r.t18_rows
  && List.exists (fun x -> x.fr_live <> None) r.t18_rows
  && c.c_v1_versions && c.c_v1_roundtrip && c.c_v2_roundtrip
  && c.c_stats_roundtrip
  && r.t18_overhead.ov_ratio <= 1.05

(* ------------------------------------------------------------------ *)

(* The gate harness. A gate prints its report and returns its verdict;
   the harness prints the verdict line from that bool, so no printer
   judges a gate and the printed verdict is the exit verdict. The
   ordered registry of E1–E20 is {!Pna_gen.Gates.all}: E17, E19 and E20
   live in lib/gen, which sees this library. *)

type gate = { id : string; doc : string; run : Format.formatter -> bool }

(* A gate from a runner, its report printer and its verdict. *)
let gate id doc run pp ok =
  { id; doc; run = (fun ppf -> let r = run () in Fmt.pf ppf "%a@." pp r; ok r) }

(* Runs [gates] in order, each followed by its [=> <id> OK|FAILED] line,
   then the verdict summary. True only when at least one gate ran and
   none failed. *)
let run_gates ppf gates =
  let verdicts =
    List.map
      (fun g ->
        let ok = g.run ppf in
        Fmt.pf ppf "=> %s %s@.@." g.id (if ok then "OK" else "FAILED");
        (g.id, ok))
      gates
  in
  let failed =
    List.filter_map (fun (id, ok) -> if ok then None else Some id) verdicts
  in
  let all_ok = verdicts <> [] && failed = [] in
  Fmt.pf ppf "@[<v>verdicts: %a@,=> %s@]@."
    Fmt.(list ~sep:(any ", ") (fun ppf (id, ok) ->
             pf ppf "%s %s" id (if ok then "ok" else "FAILED")))
    verdicts
    (if all_ok then "all experiments hold"
     else Fmt.str "FAILED: %s" (String.concat ", " failed));
  all_ok

(* E1–E16 and E18, in E-order. E2 covers E3; E8 is the efficacy matrix
   and the benign-overhead run together. *)
let gates =
  [
    gate "E1" "Every attack succeeds with defenses off." e1 pp_e1 e1_ok;
    gate "E2"
      "E2/E3: StackGuard stops the naive smash, not the selective overwrite."
      e2_e3 pp_e2_e3 e2_e3_ok;
    gate "E4" "Information leakage with and without sanitization." e4 pp_e4
      e4_ok;
    gate "E5" "DoS response curve for attacker-chosen loop bounds."
      (fun () -> e5 ()) pp_e5 e5_ok;
    gate "E6" "Memory-leak growth per iteration." (fun () -> e6 ()) pp_e6 e6_ok;
    gate "E7" "Static detection: placement checker vs the string-op baseline."
      e7 pp_e7 e7_ok;
    {
      id = "E8";
      doc = "Attack x defense matrix, and the benign workload under each \
             defense.";
      run =
        (fun ppf ->
          let m = e8_matrix () in
          Fmt.pf ppf "%a@.@." pp_e8_matrix m;
          let o = e8_overhead () in
          Fmt.pf ppf "%a@." pp_e8_overhead o;
          e8_matrix_ok m && e8_overhead_ok o);
    };
    gate "E9"
      "Chaos: seeded fault plans over attacks and the benign workload \
       degrade gracefully (seed 1, 10 trials)."
      (fun () -> e9 ()) pp_e9 e9_ok;
    gate "E10" "Random testing vs the directed attacker vs static analysis."
      (fun () -> e10 ()) pp_e10 e10_ok;
    gate "E11" "Auto-harden the whole catalogue and replay the attacks." e11
      pp_e11 e11_ok;
    gate "E12"
      "Scenario-service throughput: snapshot reuse, memoization, domain \
       scaling."
      (fun () -> e12 ()) pp_e12 e12_ok;
    gate "E13"
      "Telemetry: disabled overhead within 5% and every scenario trace \
       complete."
      (fun () -> e13 ()) pp_e13 e13_ok;
    gate "E14"
      "PNASan: every attack flagged at its first corrupting access, clean \
       runs flag-free, disabled overhead within 5%."
      (fun () -> e14 ()) pp_e14 e14_ok;
    gate "E15"
      "Vmem fast path equals the byte path and pays; pooled execution \
       matches the driver and scales (1, 2, 4 domains)."
      (fun () -> e15 ()) pp_e15 e15_ok;
    gate "E16"
      "The wire gate: 20k-request load, protocol fuzz, 600-request chaos \
       soak, wire verdicts equal the driver's."
      e16 pp_e16 e16_ok;
    gate "E18"
      "Observability: wire traces connect, forensic bundles match the live \
       oracle, v1 frames decode, disabled overhead within 5%."
      e18 pp_e18 e18_ok;
  ]
