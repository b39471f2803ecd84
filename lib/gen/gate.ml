(** E17 — the generative-corpus gate.

    Two independent campaigns from the same seed must agree to the byte
    (corpus determinism), no oracle crash may go unclassified (an
    escaped exception fails the gate; an [Internal_error] outcome is
    classified and ships as a divergence repro), and every surviving
    divergence fingerprint must re-reproduce from its minimized genome —
    that minimized genome is the replayable artifact CI uploads. The
    gate's report carries either a concrete checker misclassification
    found by the generator or the measured per-rule precision/recall
    table (usually both). *)

type repro = { rp_div : Fuzz.divergence; rp_ok : bool }

type t = {
  e_seed : int;
  e_n : int;
  e_stats : Fuzz.stats;
  e_corpus : string;  (** encoded corpus bytes of the first campaign *)
  e_deterministic : bool;
  e_repros : repro list;
  e_misclassification : string option;
  e_ok : bool;
}

let misclassification (s : Fuzz.stats) =
  List.find_map
    (fun (d : Fuzz.divergence) ->
      match d.Fuzz.c_kind with
      | Oracle.Missed_detection | Oracle.Static_false_positive ->
        Some
          (Fmt.str "%s [%s, minimized to %s]" d.Fuzz.c_detail
             (Genome.summary d.Fuzz.c_minimized)
             (Genome.id d.Fuzz.c_minimized))
      | Oracle.Verdict_divergence | Oracle.Oracle_crash -> None)
    s.Fuzz.f_divergences

let run ?(seed = 42) ?(n = 1000) ?max_steps () =
  let s1 = Fuzz.campaign ~n ?max_steps ~seed () in
  let s2 = Fuzz.campaign ~n ?max_steps ~seed () in
  let c1 = Corpus.to_string s1.Fuzz.f_corpus in
  let c2 = Corpus.to_string s2.Fuzz.f_corpus in
  let deterministic = String.equal c1 c2 in
  let repros =
    List.map
      (fun (d : Fuzz.divergence) ->
        let rep = Oracle.run ?max_steps d.Fuzz.c_minimized in
        {
          rp_div = d;
          rp_ok =
            List.exists
              (fun (d' : Oracle.divergence) ->
                d'.Oracle.d_fingerprint = d.Fuzz.c_fingerprint)
              rep.Oracle.o_divergences;
        })
      s1.Fuzz.f_divergences
  in
  let all_repro = List.for_all (fun r -> r.rp_ok) repros in
  {
    e_seed = seed;
    e_n = n;
    e_stats = s1;
    e_corpus = c1;
    e_deterministic = deterministic;
    e_repros = repros;
    e_misclassification = misclassification s1;
    e_ok =
      s1.Fuzz.f_generated + s1.Fuzz.f_duplicates >= n
      && deterministic
      && s1.Fuzz.f_escaped = 0
      && all_repro;
  }

let pp ppf t =
  let s = t.e_stats in
  Fmt.pf ppf
    "@[<v>E17 — generative corpus with a differential oracle@,\
     %a@,\
     corpus bytes: %d, byte-identical across two seeded runs: %b@,"
    Fuzz.pp s (String.length t.e_corpus) t.e_deterministic;
  (match t.e_repros with
  | [] -> Fmt.pf ppf "no divergences survived — nothing to minimize@,"
  | rs ->
    Fmt.pf ppf "minimized repros (%d):@," (List.length rs);
    List.iter
      (fun r ->
        Fmt.pf ppf "  [%s] %s@,      %s -> %s (%d hit(s)) %s@,"
          (Oracle.dkind_label r.rp_div.Fuzz.c_kind)
          r.rp_div.Fuzz.c_detail
          (Genome.id r.rp_div.Fuzz.c_genome)
          (Genome.id r.rp_div.Fuzz.c_minimized)
          r.rp_div.Fuzz.c_hits
          (if r.rp_ok then "[reproduces]" else "[DOES NOT REPRODUCE]"))
      rs);
  (match t.e_misclassification with
  | Some m -> Fmt.pf ppf "checker misclassification found: %s@]" m
  | None ->
    Fmt.pf ppf
      "no checker misclassification surfaced; precision/recall above is the \
       report@]")
