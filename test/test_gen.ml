(* Tests for the generative attack catalogue: the genome grammar and its
   codec, the scenario builder, the differential oracle, corpus
   persistence, minimization and campaign/gate determinism. *)

module R = Pna_rand.Rand
module Genome = Pna_gen.Genome
module Build = Pna_gen.Build
module Oracle = Pna_gen.Oracle
module Corpus = Pna_gen.Corpus
module Minimize = Pna_gen.Minimize
module Fuzz = Pna_gen.Fuzz
module Gate = Pna_gen.Gate
module Config = Pna_defense.Config
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All

let stream seed n =
  let rng = R.create seed in
  List.init n (fun _ -> Genome.generate rng)

let test_codec_roundtrip () =
  List.iter
    (fun g ->
      match Genome.decode (Genome.encode g) with
      | Ok g' ->
        Alcotest.(check string) "roundtrip preserves identity" (Genome.id g)
          (Genome.id g');
        Alcotest.(check bool) "roundtrip is structural equality" true (g = g')
      | Error m -> Alcotest.failf "decode failed on %s: %s" (Genome.id g) m)
    (stream 0xc0dec 200)

let test_codec_total () =
  let g = List.hd (stream 5 1) in
  let enc = Genome.encode g in
  (* truncations, bit flips and garbage must all land in Error *)
  for len = 0 to String.length enc - 1 do
    match Genome.decode (String.sub enc 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
    | Error _ -> ()
  done;
  let flipped = Bytes.of_string enc in
  Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 0xff));
  (match Genome.decode (Bytes.to_string flipped) with
  | Ok _ | Error _ -> ());
  match Genome.decode "not a genome at all" with
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error _ -> ()

let test_generate_deterministic () =
  let ids seed = List.map Genome.id (stream seed 300) in
  Alcotest.(check (list string)) "same seed, same stream" (ids 7) (ids 7);
  Alcotest.(check bool) "different seed, different stream" true
    (ids 7 <> ids 8)

let test_generate_diverse () =
  let gs = stream 11 300 in
  let labels f = List.sort_uniq compare (List.map f gs) in
  Alcotest.(check bool) "several arena classes" true
    (List.length (labels (fun g -> Genome.arena_label g.Genome.g_arena)) >= 5);
  Alcotest.(check bool) "all four targets drawn" true
    (List.length (labels (fun g -> Genome.target_label g.Genome.g_target)) = 4);
  Alcotest.(check bool) "all three scripts drawn" true
    (List.length (labels (fun g -> Genome.script_label g.Genome.g_script)) = 3);
  (* §3.5 internal placements appear *)
  Alcotest.(check bool) "internal placements generated" true
    (List.exists (fun g -> g.Genome.g_internal_off > 0) gs)

let test_oracle_classifies_everything () =
  (* no escaped exception and no unclassified crash across a sample *)
  List.iter
    (fun g ->
      let rep = Oracle.run ~max_steps:20_000 g in
      Alcotest.(check bool)
        (Fmt.str "%s escaped" (Genome.id g))
        false rep.Oracle.o_escaped;
      Alcotest.(check bool)
        (Fmt.str "%s produced features" (Genome.id g))
        true
        (rep.Oracle.o_features <> []))
    (stream 21 40)

let test_corpus_roundtrip () =
  let gs = stream 31 50 in
  let s = Corpus.to_string gs in
  (match Corpus.of_string s with
  | Ok gs' ->
    Alcotest.(check (list string)) "corpus roundtrip" (List.map Genome.id gs)
      (List.map Genome.id gs')
  | Error m -> Alcotest.failf "roundtrip failed: %s" m);
  Alcotest.(check string) "encoding is canonical" s (Corpus.to_string gs)

let test_corpus_rejects_corruption () =
  let gs = stream 37 10 in
  let s = Corpus.to_string gs in
  let expect_error what s' =
    match Corpus.of_string s' with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  expect_error "empty string" "";
  expect_error "bad magic" ("XXXXXXXX" ^ String.sub s 8 (String.length s - 8));
  expect_error "truncation" (String.sub s 0 (String.length s - 9));
  expect_error "trailing garbage" (s ^ "junk");
  let flipped = Bytes.of_string s in
  Bytes.set flipped 20 (Char.chr (Char.code (Bytes.get flipped 20) lxor 0x55));
  expect_error "bit flip" (Bytes.to_string flipped)

let test_shrink_strictly_simpler () =
  (* every shrink candidate re-encodes and never equals its parent *)
  List.iter
    (fun g ->
      List.iter
        (fun c ->
          Alcotest.(check bool) "candidate differs from parent" true (c <> g);
          match Genome.decode (Genome.encode c) with
          | Ok c' -> Alcotest.(check bool) "candidate roundtrips" true (c = c')
          | Error m -> Alcotest.failf "candidate broken: %s" m)
        (Genome.shrink_candidates g))
    (stream 41 60)

let test_minimize_preserves_predicate () =
  let g =
    (* find a genome with some meat on it *)
    List.find
      (fun g -> g.Genome.g_depth = 2 && g.Genome.g_extra <> [])
      (stream 43 200)
  in
  let reproduces c = c.Genome.g_script = g.Genome.g_script in
  let m = Minimize.minimize ~budget:80 ~reproduces g in
  Alcotest.(check bool) "minimized still reproduces" true (reproduces m);
  Alcotest.(check bool) "minimized is no bigger" true
    (String.length (Genome.encode m) <= String.length (Genome.encode g))

let test_campaign_deterministic () =
  let c1 = Fuzz.campaign ~n:60 ~seed:9 () in
  let c2 = Fuzz.campaign ~n:60 ~seed:9 () in
  Alcotest.(check string) "byte-identical corpora"
    (Corpus.to_string c1.Fuzz.f_corpus)
    (Corpus.to_string c2.Fuzz.f_corpus);
  Alcotest.(check int) "same hot count" c1.Fuzz.f_hot c2.Fuzz.f_hot;
  Alcotest.(check (list string)) "same divergence fingerprints"
    (List.map (fun d -> d.Fuzz.c_fingerprint) c1.Fuzz.f_divergences)
    (List.map (fun d -> d.Fuzz.c_fingerprint) c2.Fuzz.f_divergences);
  Alcotest.(check int) "no escaped exceptions" 0 c1.Fuzz.f_escaped;
  Alcotest.(check bool) "novelty filter actually filters" true
    (c1.Fuzz.f_kept < c1.Fuzz.f_generated);
  (* accounting: every distinct genome lands in exactly one truth bucket *)
  Alcotest.(check int) "hot + benign = generated" c1.Fuzz.f_generated
    (c1.Fuzz.f_hot + c1.Fuzz.f_benign);
  Alcotest.(check int) "confusion matrix covers every scenario"
    c1.Fuzz.f_generated
    (c1.Fuzz.f_union_tp + c1.Fuzz.f_union_fp + c1.Fuzz.f_union_fn
    + c1.Fuzz.f_union_tn)

let test_gate_small () =
  let g = Gate.run ~seed:5 ~n:40 () in
  Alcotest.(check bool) "determinism holds" true g.Gate.e_deterministic;
  Alcotest.(check int) "no escapes" 0 g.Gate.e_stats.Fuzz.f_escaped;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Fmt.str "repro %s reproduces"
           (Genome.id r.Gate.rp_div.Fuzz.c_minimized))
        true r.Gate.rp_ok)
    g.Gate.e_repros;
  Alcotest.(check bool) "gate passes" true g.Gate.e_ok

let test_register_find () =
  let g = List.hd (stream 47 1) in
  let sc = Build.scenario g in
  All.register sc;
  (match All.find sc.Catalog.id with
  | Some found ->
    Alcotest.(check string) "registered scenario is findable" sc.Catalog.id
      found.Catalog.id
  | None -> Alcotest.fail "registered scenario not found");
  (* a registration can never shadow the static catalogue *)
  let static = List.hd All.attacks in
  All.register { sc with Catalog.id = static.Catalog.id };
  (match All.find static.Catalog.id with
  | Some found ->
    Alcotest.(check string) "static catalogue wins on collision"
      static.Catalog.name found.Catalog.name
  | None -> Alcotest.fail "static attack vanished");
  Alcotest.(check bool) "registered ids listed" true
    (List.mem sc.Catalog.id (All.registered_ids ()))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "gen",
    [
      t "genome codec roundtrips" test_codec_roundtrip;
      t "genome decode is total" test_codec_total;
      t "generation is a pure function of the seed" test_generate_deterministic;
      t "generation covers the grammar" test_generate_diverse;
      t "oracle classifies every run" test_oracle_classifies_everything;
      t "corpus roundtrips canonically" test_corpus_roundtrip;
      t "corpus rejects corruption" test_corpus_rejects_corruption;
      t "shrink candidates are well-formed" test_shrink_strictly_simpler;
      t "minimization preserves the predicate" test_minimize_preserves_predicate;
      t "campaigns are deterministic and accounted" test_campaign_deterministic;
      t "the E17 gate passes at small n" test_gate_small;
      t "dynamic registration feeds All.find" test_register_find;
    ] )
