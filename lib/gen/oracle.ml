(** The differential oracle: one generated scenario, every truth source,
    classified disagreements.

    For each genome the oracle runs the scenario (1) plain with the
    PNASan shadow map attached — the ground truth for what memory was
    actually corrupted, (2) plain again — a determinism check, (3) plain
    unsanitized — record-don't-halt means the verdict must not move,
    (4) under every {!Pna_defense.Config} — what the deployed defenses
    say, and compares all of that against (5) the static
    {!Pna_analysis.Placement_checker} prediction. Every disagreement is
    classified:

    - [Missed_detection]: the shadow map recorded a write-class
      corruption but the static checker raised no actionable
      overflow-class finding.
    - [Static_false_positive]: the checker claimed [Overflow_certain]
      but the run was spotless (no violation, no oversize placement,
      normal exit).
    - [Verdict_divergence]: two truth sources disagree about the same
      run — nondeterminism between identical runs, a sanitized run whose
      status differs from the unsanitized one, or a defense that blocked
      a scenario the shadow map calls clean.
    - [Oracle_crash]: an [Internal_error] outcome or an escaped
      exception — the simulator itself, not the program, failed.

    Divergences carry a shape-level fingerprint (not the genome id) so
    one underlying bug dedups across the thousands of genomes that
    trigger it. *)

module San = Pna_sanitizer.Sanitizer
module Driver = Pna_attacks.Driver
module Config = Pna_defense.Config
module Finding = Pna_analysis.Finding
module Checker = Pna_analysis.Placement_checker
module O = Pna_minicpp.Outcome
module Vm = Pna_minicpp.Vm
module Event = Pna_machine.Event
module Coverage = Pna.Coverage

type dkind =
  | Missed_detection
  | Static_false_positive
  | Verdict_divergence
  | Oracle_crash

let dkind_label = function
  | Missed_detection -> "missed-detection"
  | Static_false_positive -> "static-false-positive"
  | Verdict_divergence -> "verdict-divergence"
  | Oracle_crash -> "oracle-crash"

type divergence = { d_kind : dkind; d_fingerprint : string; d_detail : string }

type report = {
  o_id : string;
  o_genome : Genome.t;
  o_status : string;  (** plain sanitized run's status label *)
  o_verdict : bool;
  o_oversize : bool;  (** an oversize placement actually executed *)
  o_viol : (San.kind * int) list;  (** shadow-map truth, by kind *)
  o_write_viol : bool;  (** some write-class corruption was recorded *)
  o_findings : Finding.kind list;  (** actionable static findings *)
  o_defense : (string * string) list;  (** config name -> status label *)
  o_features : string list;  (** coverage-feedback features *)
  o_divergences : divergence list;
  o_escaped : bool;  (** a raw exception escaped: unclassified crash *)
}

let status_label = function
  | O.Exited _ -> "exited"
  | O.Arc_injection _ -> "arc-inj"
  | O.Code_injection _ -> "code-inj"
  | O.Crashed _ -> "crashed"
  | O.Stack_smashing_detected -> "canary"
  | O.Defense_blocked _ -> "blocked"
  | O.Timeout _ -> "timeout"
  | O.Out_of_memory -> "oom"
  | O.Internal_error _ -> "internal-error"
  | O.Recovered _ -> "recovered"

let write_kind = function
  | San.Placement_overflow | San.Stack_smash | San.Heap_overflow
  | San.Meta_write ->
    true
  | San.Use_after_free | San.Stale_read -> false

let overflow_finding = function
  | Finding.Overflow_certain | Finding.Overflow_possible
  | Finding.Tainted_size | Finding.Copy_overflow ->
    true
  | _ -> false

let count_by_kind (vs : San.violation list) =
  List.fold_left
    (fun acc v ->
      let k = v.San.v_kind in
      match List.assoc_opt k acc with
      | Some n -> (k, n + 1) :: List.remove_assoc k acc
      | None -> (k, 1) :: acc)
    [] vs
  |> List.sort compare

let oversize_of (o : O.t) =
  List.exists
    (function
      | Event.Placement { size; arena = Some a; _ } -> size > a
      | _ -> false)
    o.O.events

(* shape-level key: one simulator/analyzer bug fingerprints the same
   across every genome that happens to trigger it *)
let shape_key (g : Genome.t) =
  Fmt.str "%s/%s/%s%s%s"
    (Genome.arena_label
       (match g.Genome.g_arena with
       | Genome.A_stack_buf _ -> Genome.A_stack_buf 0
       | Genome.A_global_buf _ -> Genome.A_global_buf 0
       | Genome.A_heap_buf _ -> Genome.A_heap_buf 0
       | a -> a))
    (Genome.target_label g.Genome.g_target)
    (Genome.script_label g.Genome.g_script)
    (if g.Genome.g_internal_off > 0 then "/internal" else "")
    (if g.Genome.g_guard then "/guarded" else "")

let default_max_steps = 60_000

let run ?(configs = Config.all) ?(max_steps = default_max_steps) g =
  let id = Genome.id g in
  let program = Build.program_of g in
  let scenario = Build.scenario g in
  let divs = ref [] in
  let escaped = ref false in
  let add kind fp detail =
    divs := { d_kind = kind; d_fingerprint = fp; d_detail = detail } :: !divs
  in
  let crash_of label status =
    match status with
    | O.Internal_error m ->
      add Oracle_crash
        (Fmt.str "crash|%s|%s" label (shape_key g))
        (Fmt.str "%s run hit Internal_error: %s" label m)
    | _ -> ()
  in
  (* a Driver.run that can never take the campaign down: an escaped
     exception IS the finding (an unclassified oracle crash) *)
  let guarded label f =
    try Some (f ()) with
    | exn ->
      escaped := true;
      add Oracle_crash
        (Fmt.str "crash|escaped|%s|%s" label (Printexc.to_string exn))
        (Fmt.str "%s run escaped with %s" label (Printexc.to_string exn));
      None
  in
  let plain =
    guarded "sanitized" (fun () ->
        Driver.run ~max_steps ~sanitize:true scenario)
  in
  let again =
    guarded "repeat" (fun () ->
        Driver.run ~max_steps ~sanitize:true scenario)
  in
  let bare =
    guarded "unsanitized" (fun () ->
        Driver.run ~max_steps ~sanitize:false scenario)
  in
  let status, verdict, oversize, viol =
    match plain with
    | None -> ("escaped", false, false, [])
    | Some r ->
      crash_of "sanitized" r.Driver.outcome.O.status;
      ( status_label r.Driver.outcome.O.status,
        r.Driver.verdict.Pna_attacks.Catalog.success,
        oversize_of r.Driver.outcome,
        count_by_kind r.Driver.violations )
  in
  (match (plain, again) with
  | Some a, Some b ->
    if
      status_label a.Driver.outcome.O.status
      <> status_label b.Driver.outcome.O.status
      || a.Driver.verdict.Pna_attacks.Catalog.success
         <> b.Driver.verdict.Pna_attacks.Catalog.success
    then
      add Verdict_divergence
        (Fmt.str "verdict|nondet|%s" (shape_key g))
        (Fmt.str "identical runs disagreed: %s vs %s"
           (status_label a.Driver.outcome.O.status)
           (status_label b.Driver.outcome.O.status))
  | _ -> ());
  (match (plain, bare) with
  | Some a, Some b ->
    crash_of "unsanitized" b.Driver.outcome.O.status;
    if
      status_label a.Driver.outcome.O.status
      <> status_label b.Driver.outcome.O.status
    then
      add Verdict_divergence
        (Fmt.str "verdict|sanitizer|%s|%s->%s" (shape_key g)
           (status_label b.Driver.outcome.O.status)
           (status_label a.Driver.outcome.O.status))
        (Fmt.str
           "sanitizer perturbed the run: unsanitized %s, sanitized %s"
           (status_label b.Driver.outcome.O.status)
           (status_label a.Driver.outcome.O.status))
  | _ -> ());
  let write_viol = List.exists (fun (k, _) -> write_kind k) viol in
  (* defenses *)
  let defense =
    List.filter_map
      (fun (c : Config.t) ->
        match
          guarded
            (Fmt.str "defense:%s" c.Config.name)
            (fun () -> Driver.run ~config:c ~max_steps ~sanitize:false scenario)
        with
        | None -> None
        | Some r ->
          crash_of (Fmt.str "defense:%s" c.Config.name) r.Driver.outcome.O.status;
          let label = status_label r.Driver.outcome.O.status in
          if O.blocked r.Driver.outcome && (not write_viol) && not oversize
          then
            add Verdict_divergence
              (Fmt.str "verdict|defense|%s|%s" c.Config.name (shape_key g))
              (Fmt.str "%s blocked a scenario the shadow map calls clean (%s)"
                 c.Config.name label);
          Some (c.Config.name, label))
      configs
  in
  (* static prediction *)
  let findings =
    match
      guarded "analyze" (fun () ->
          List.filter Finding.actionable (Checker.analyze ~interproc:true program))
    with
    | None -> []
    | Some fs -> List.sort_uniq compare (List.map (fun f -> f.Finding.kind) fs)
  in
  let has_overflow_finding = List.exists overflow_finding findings in
  if write_viol && not has_overflow_finding then
    add Missed_detection
      (Fmt.str "missed|%s|%s" (shape_key g)
         (String.concat "," (List.map (fun (k, _) -> San.kind_name k) viol)))
      (Fmt.str "shadow map recorded [%s] but the checker raised no actionable overflow finding"
         (String.concat "; "
            (List.map
               (fun (k, n) -> Fmt.str "%s x%d" (San.kind_name k) n)
               viol)));
  if
    List.mem Finding.Overflow_certain findings
    && viol = [] && (not oversize) && status = "exited"
  then
    add Static_false_positive
      (Fmt.str "static-fp|%s" (shape_key g))
      "checker claims Overflow_certain but the run was spotless";
  (* coverage features for the campaign's novelty filter *)
  let features =
    let bm, hook = Coverage.bitmap program in
    (match
       guarded "coverage" (fun () ->
           Vm.execute ~max_steps ~config:Config.none
             ~input_ints:(Build.input_ints g None)
             ~on_stmt:hook program)
     with
    | _ -> ());
    List.concat
      [
        [ Fmt.str "status:%s" status ];
        (if oversize then [ "oversize" ] else []);
        (if verdict then [ "verdict:success" ] else []);
        List.map (fun (k, _) -> Fmt.str "viol:%s" (San.kind_name k)) viol;
        List.map (fun k -> Fmt.str "find:%s" (Finding.kind_name k)) findings;
        List.map (fun (c, l) -> Fmt.str "def:%s:%s" c l) defense;
        List.map (fun i -> Fmt.str "site:%s" (Coverage.site_label bm i))
          (Coverage.hit_sites bm);
      ]
  in
  {
    o_id = id;
    o_genome = g;
    o_status = status;
    o_verdict = verdict;
    o_oversize = oversize;
    o_viol = viol;
    o_write_viol = write_viol;
    o_findings = findings;
    o_defense = defense;
    o_features = features;
    o_divergences = List.rev !divs;
    o_escaped = !escaped;
  }

let pp_divergence ppf d =
  Fmt.pf ppf "%-22s %s" (dkind_label d.d_kind) d.d_detail
