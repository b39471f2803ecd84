(** The fuzz campaign: seeded genome stream → differential oracle →
    coverage-filtered corpus + deduplicated, minimized divergences +
    per-rule precision/recall for the static checker.

    Everything is a pure function of the seed: the genome stream comes
    from the shared SplitMix64 RNG, the oracle is deterministic, and
    minimization walks candidates in a fixed order — so two campaigns
    with the same seed produce byte-identical corpora (the E17
    determinism gate) and every shipped repro replays. *)

module R = Pna_rand.Rand
module Finding = Pna_analysis.Finding
module Metrics = Pna_telemetry.Metrics
module Clock = Pna_telemetry.Clock

(* -- static-checker scoring ------------------------------------------- *)

(* Scored per scenario against the shadow-map truth: a rule "fires" when
   an actionable finding of that kind exists, and the scenario is "hot"
   when the sanitizer recorded a write-class corruption. Recall is only
   meaningful for the union (any overflow-class rule vs hot), but the
   per-rule split shows which rules earn their precision. *)
type rule = {
  r_kind : Finding.kind;
  mutable r_tp : int;
  mutable r_fp : int;
  mutable r_fn : int;  (** hot scenarios this rule (alone) did not flag *)
}

let rule_kinds =
  [
    Finding.Overflow_certain;
    Finding.Overflow_possible;
    Finding.Tainted_size;
    Finding.Copy_overflow;
  ]

let precision r =
  if r.r_tp + r.r_fp = 0 then 1.0
  else float_of_int r.r_tp /. float_of_int (r.r_tp + r.r_fp)

let recall r =
  if r.r_tp + r.r_fn = 0 then 1.0
  else float_of_int r.r_tp /. float_of_int (r.r_tp + r.r_fn)

type divergence = {
  c_fingerprint : string;
  c_kind : Oracle.dkind;
  c_detail : string;
  c_genome : Genome.t;  (** first genome that triggered it *)
  c_minimized : Genome.t;
  c_hits : int;  (** genomes that mapped to this fingerprint *)
}

type stats = {
  f_seed : int;
  f_requested : int;
  f_generated : int;  (** distinct genomes actually run (duplicates skipped) *)
  f_duplicates : int;
  f_kept : int;
  f_corpus : Genome.t list;  (** coverage-novel genomes, generation order *)
  f_hot : int;  (** scenarios with a write-class shadow violation *)
  f_benign : int;
  f_oversize : int;
  f_escaped : int;  (** raw escaped exceptions — must be 0 *)
  f_statuses : (string * int) list;
  f_divergences : divergence list;  (** deduplicated by fingerprint *)
  f_union_tp : int;
  f_union_fp : int;
  f_union_fn : int;
  f_union_tn : int;
  f_rules : rule list;
  f_oracle_runs : int;  (** including minimization re-runs *)
}

let union_precision s =
  if s.f_union_tp + s.f_union_fp = 0 then 1.0
  else float_of_int s.f_union_tp /. float_of_int (s.f_union_tp + s.f_union_fp)

let union_recall s =
  if s.f_union_tp + s.f_union_fn = 0 then 1.0
  else float_of_int s.f_union_tp /. float_of_int (s.f_union_tp + s.f_union_fn)

(* Live campaign instruments in the process-wide registry, so a scrape
   (or `pna top` against a serving process) sees fuzz progress without
   touching the deterministic result. Registered eagerly, not lazily:
   two domains forcing one lazy value at once raise
   [CamlinternalLazy.Undefined]. *)
let m_genomes = Metrics.counter Metrics.default "pna_fuzz_genomes_total"
let m_kept = Metrics.counter Metrics.default "pna_fuzz_kept_total"
let m_frontier = Metrics.gauge Metrics.default "pna_fuzz_frontier_features"
let m_rate = Metrics.gauge Metrics.default "pna_fuzz_genomes_per_s"

let m_divergence kind =
  Metrics.counter
    ~labels:[ ("class", Oracle.dkind_label kind) ]
    Metrics.default "pna_fuzz_divergences_total"

let campaign ?(n = 1000) ?(minimize_budget = 40) ?max_steps
    ?(progress_every = 0) ~seed () =
  let rng = R.create (seed lxor 0x9e47f3) in
  let t0 = Clock.now_ns () in
  let seen_ids : (string, unit) Hashtbl.t = Hashtbl.create (2 * n) in
  let seen_features : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let divmap : (string, divergence) Hashtbl.t = Hashtbl.create 64 in
  let div_order = ref [] in
  let statuses : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rules = List.map (fun k -> { r_kind = k; r_tp = 0; r_fp = 0; r_fn = 0 }) rule_kinds in
  let corpus = ref [] in
  let oracle_runs = ref 0 in
  let run_oracle g =
    incr oracle_runs;
    Oracle.run ?max_steps g
  in
  let generated = ref 0
  and duplicates = ref 0
  and kept = ref 0
  and hot = ref 0
  and benign = ref 0
  and oversize = ref 0
  and escaped = ref 0 in
  let utp = ref 0 and ufp = ref 0 and ufn = ref 0 and utn = ref 0 in
  (* Progress is a pure function of seed-deterministic counters — no
     timestamps — so two campaigns with the same seed print identical
     lines (and E17 runs with it off either way). *)
  let progress attempted =
    Metrics.set m_rate
      (float_of_int attempted
      /. Float.max 1e-9 (Clock.elapsed_s ~a:t0 ~b:(Clock.now_ns ())));
    if progress_every > 0 && attempted mod progress_every = 0 then
      Fmt.epr "fuzz: %d/%d genomes  %d kept  frontier %d  %d divergence(s)@."
        attempted n !kept
        (Hashtbl.length seen_features)
        (Hashtbl.length divmap)
  in
  for i = 1 to n do
    let g = Genome.generate rng in
    Metrics.incr m_genomes;
    let id = Genome.id g in
    if Hashtbl.mem seen_ids id then incr duplicates
    else begin
      Hashtbl.add seen_ids id ();
      incr generated;
      let rep = run_oracle g in
      if rep.Oracle.o_escaped then incr escaped;
      Hashtbl.replace statuses rep.Oracle.o_status
        (1 + Option.value ~default:0 (Hashtbl.find_opt statuses rep.Oracle.o_status));
      if rep.Oracle.o_oversize then incr oversize;
      (* score the checker *)
      let is_hot = rep.Oracle.o_write_viol in
      if is_hot then incr hot else incr benign;
      let fired k = List.mem k rep.Oracle.o_findings in
      List.iter
        (fun r ->
          match (fired r.r_kind, is_hot) with
          | true, true -> r.r_tp <- r.r_tp + 1
          | true, false -> r.r_fp <- r.r_fp + 1
          | false, true -> r.r_fn <- r.r_fn + 1
          | false, false -> ())
        rules;
      let union_fired = List.exists (fun r -> fired r.r_kind) rules in
      (match (union_fired, is_hot) with
      | true, true -> incr utp
      | true, false -> incr ufp
      | false, true -> incr ufn
      | false, false -> incr utn);
      (* coverage-feedback filter: keep only novelty *)
      let novel =
        List.exists (fun f -> not (Hashtbl.mem seen_features f)) rep.Oracle.o_features
      in
      if novel then begin
        List.iter (fun f -> Hashtbl.replace seen_features f ()) rep.Oracle.o_features;
        incr kept;
        Metrics.incr m_kept;
        Metrics.set m_frontier
          (float_of_int (Hashtbl.length seen_features));
        corpus := g :: !corpus
      end;
      (* dedup + minimize divergences *)
      List.iter
        (fun (d : Oracle.divergence) ->
          Metrics.incr (m_divergence d.Oracle.d_kind);
          match Hashtbl.find_opt divmap d.Oracle.d_fingerprint with
          | Some c ->
            Hashtbl.replace divmap d.Oracle.d_fingerprint
              { c with c_hits = c.c_hits + 1 }
          | None ->
            let reproduces cand =
              List.exists
                (fun (d' : Oracle.divergence) ->
                  d'.Oracle.d_fingerprint = d.Oracle.d_fingerprint)
                (run_oracle cand).Oracle.o_divergences
            in
            let minimized =
              Minimize.minimize ~budget:minimize_budget ~reproduces g
            in
            Hashtbl.add divmap d.Oracle.d_fingerprint
              {
                c_fingerprint = d.Oracle.d_fingerprint;
                c_kind = d.Oracle.d_kind;
                c_detail = d.Oracle.d_detail;
                c_genome = g;
                c_minimized = minimized;
                c_hits = 1;
              };
            div_order := d.Oracle.d_fingerprint :: !div_order)
        rep.Oracle.o_divergences
    end;
    progress i
  done;
  {
    f_seed = seed;
    f_requested = n;
    f_generated = !generated;
    f_duplicates = !duplicates;
    f_kept = !kept;
    f_corpus = List.rev !corpus;
    f_hot = !hot;
    f_benign = !benign;
    f_oversize = !oversize;
    f_escaped = !escaped;
    f_statuses =
      Hashtbl.fold (fun k v l -> (k, v) :: l) statuses [] |> List.sort compare;
    f_divergences =
      List.rev_map (fun fp -> Hashtbl.find divmap fp) !div_order;
    f_union_tp = !utp;
    f_union_fp = !ufp;
    f_union_fn = !ufn;
    f_union_tn = !utn;
    f_rules = rules;
    f_oracle_runs = !oracle_runs;
  }

let pp_rules ppf s =
  Fmt.pf ppf "@[<v>%-18s %5s %5s %5s %10s %8s@," "rule" "tp" "fp" "fn"
    "precision" "recall";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-18s %5d %5d %5d %10.3f %8.3f@,"
        (Finding.kind_name r.r_kind) r.r_tp r.r_fp r.r_fn (precision r)
        (recall r))
    s.f_rules;
  Fmt.pf ppf "%-18s %5d %5d %5d %10.3f %8.3f@]" "any-overflow-rule"
    s.f_union_tp s.f_union_fp s.f_union_fn (union_precision s)
    (union_recall s)

let pp ppf s =
  Fmt.pf ppf
    "@[<v>seed %d: %d requested, %d distinct run (%d duplicate), %d kept \
     (coverage-novel)@,\
     truth: %d hot / %d benign / %d oversize placements; statuses: %a@,\
     %d divergence fingerprint(s), %d escaped exception(s), %d oracle runs@,\
     %a@]"
    s.f_seed s.f_requested s.f_generated s.f_duplicates s.f_kept s.f_hot
    s.f_benign s.f_oversize
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") string int))
    s.f_statuses
    (List.length s.f_divergences)
    s.f_escaped s.f_oracle_runs pp_rules s
