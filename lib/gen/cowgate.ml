(** E20 — the copy-on-write equivalence gate.

    Dirty-page rewinds ({!Pna_vmem.Vmem.restore} under COW, the speed
    lever behind the scenario service) are only admissible if they are
    bit-identical to the full-copy reference path. This gate drives
    every scenario three ways —

    - a prepared machine rewinding over dirty pages,
    - a replica thawed from the prepared machine's frozen image (the
      cross-domain sharing path: clean pages reference the image's
      immutable backing), both of which run the scenario twice (the
      second run rewinds a dirtied machine — the path under test) and
      are then rewound one final time, and
    - the reference: a freshly thawed replica for every round and for
      the final state. A fresh shell's byte stores are synced to
      nothing, so its one restore copies every byte of every segment
      and shadow — the same path every production thaw runs

    — over the whole attack catalogue (defenses off and fully on, plain
    and sanitized) and a seeded stream of generated genomes. Compared:
    the complete
    {!Pna_attacks.Driver.result} of every round (outcome, verdict,
    sanitizer violations) and a digest of the rewound state — every
    mapped segment's contents, taint and permissions, plus the
    per-byte shadow states when the oracle is attached. Any difference
    fails the gate. *)

module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Machine = Pna_machine.Machine
module Vmem = Pna_vmem.Vmem
module Segment = Pna_vmem.Segment
module Perm = Pna_vmem.Perm
module San = Pna_sanitizer.Sanitizer
module R = Pna_rand.Rand

(* Everything a rewind is supposed to reproduce, hashed: segment
   geometry, permissions, contents and taint (straight off the backing
   bytes — the dirty bitmaps are COW bookkeeping and deliberately
   excluded), and the shadow map when a sanitizer is attached. *)
let state_digest m =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (s : Segment.t) ->
      Buffer.add_string buf
        (Fmt.str "%s|%x|%x|%s|" (Segment.kind_name s.Segment.kind)
           s.Segment.base s.Segment.size
           (Perm.to_string s.Segment.perm));
      Buffer.add_bytes buf s.Segment.bytes;
      Buffer.add_bytes buf s.Segment.taint)
    (Vmem.segments (Machine.mem m));
  (match Machine.sanitizer m with
  | None -> ()
  | Some sn ->
    List.iter
      (fun (base, states) ->
        Buffer.add_string buf (Fmt.str "shadow|%x|" base);
        Buffer.add_bytes buf states)
      (San.shadow_images sn));
  Digest.to_hex (Digest.bytes (Buffer.to_bytes buf))

type row = {
  c_id : string;
  c_config : string;
  c_sanitized : bool;
  c_results : bool;  (** per-round results identical across the variants *)
  c_rewound : bool;  (** post-rewind state digests identical *)
}

let row_ok r = r.c_results && r.c_rewound

(* The second round is the one under test: it restores a machine the
   first round dirtied, so the blitted dirty runs must reassemble the
   snapshot exactly. *)
let rounds = 2

let result_key (r : Driver.result) =
  (r.Driver.outcome, r.Driver.verdict, r.Driver.violations)

(* [fresh ()] supplies the machine for each round and for the final
   digest: the same one every time for the paths under test, a new thaw
   every time for the reference. *)
let drive ~max_steps fresh =
  let rs =
    List.init rounds (fun _ ->
        result_key (Driver.run_prepared ~max_steps (fresh ())))
  in
  (rs, state_digest (Driver.reset (fresh ())))

let compare_paths ~max_steps ~config ~sanitize (a : Catalog.t) =
  let cow = Driver.prepare ~config ~sanitize a in
  let im = Driver.freeze cow in
  let replica = Driver.thaw im in
  let r_ref, d_ref = drive ~max_steps (fun () -> Driver.thaw im) in
  let r_cow, d_cow = drive ~max_steps (fun () -> cow) in
  let r_rep, d_rep = drive ~max_steps (fun () -> replica) in
  {
    c_id = a.Catalog.id;
    c_config = config.Config.name;
    c_sanitized = sanitize;
    c_results = r_cow = r_ref && r_rep = r_ref;
    c_rewound = String.equal d_cow d_ref && String.equal d_rep d_ref;
  }

let catalogue_budget = 200_000

(* The deliberately-slow exhaustion scenarios (the same pair the bench
   harness budgets separately): undefended they grind the full budget
   against the allocator — minutes per run sanitized — and the gate only
   needs a deterministic prefix that dirties pages, not the whole grind. *)
let slow_budget = 20_000
let slow_ids = [ "L15-dos"; "L23-oom" ]

let budget_for (a : Catalog.t) =
  if List.mem a.Catalog.id slow_ids then slow_budget else catalogue_budget

let catalogue () =
  List.concat_map
    (fun (a : Catalog.t) ->
      List.concat_map
        (fun config ->
          List.map
            (fun sanitize ->
              compare_paths ~max_steps:(budget_for a) ~config ~sanitize a)
            [ false; true ])
        [ Config.none; Config.full ])
    All.attacks

(* The generated stream alternates plain and sanitized runs, so the
   dirty-page paths the catalogue's hand-written
   scenarios never take (odd copy shapes, generated placement sites)
   are exercised under both. *)
let genomes ~seed ~n =
  let rng = R.create (seed lxor 0xc09a7e) in
  let bad = ref [] in
  for i = 1 to n do
    let g = Genome.generate rng in
    let row =
      compare_paths ~max_steps:Oracle.default_max_steps ~config:Config.none
        ~sanitize:(i land 1 = 0) (Build.scenario g)
    in
    if not (row_ok row) then bad := row :: !bad
  done;
  List.rev !bad

type t = {
  c_rows : row list;  (** catalogue: attack x config x sanitize *)
  c_genomes : int;  (** generated genomes compared *)
  c_genome_bad : row list;  (** the divergent ones — gate requires none *)
  c_seed : int;
  c_ok : bool;
}

let run ?(seed = 42) ?(n = 300) () =
  let rows = catalogue () in
  let bad = genomes ~seed ~n in
  {
    c_rows = rows;
    c_genomes = n;
    c_genome_bad = bad;
    c_seed = seed;
    c_ok = List.for_all row_ok rows && bad = [] && n > 0;
  }

let pp_row ppf r =
  Fmt.pf ppf "%-28s %-6s %-5s DIVERGES%s%s" r.c_id r.c_config
    (if r.c_sanitized then "san" else "plain")
    (if r.c_results then "" else "  [results]")
    (if r.c_rewound then "" else "  [rewound state]")

let pp ppf t =
  Fmt.pf ppf "@[<v>E20 — copy-on-write rewinds == fresh-replica reference@,%s@,"
    (String.make 100 '-');
  List.iter
    (fun r -> if not (row_ok r) then Fmt.pf ppf "%a@," pp_row r)
    t.c_rows;
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_row r) t.c_genome_bad;
  Fmt.pf ppf
    "catalogue: %d/%d path triples identical (COW, thawed replica, fresh replica: \
     results + rewound memory, taint, perms, shadow)@,\
     generated: %d genomes (seed %d), %d divergence(s)@]"
    (List.length (List.filter row_ok t.c_rows))
    (List.length t.c_rows) t.c_genomes t.c_seed
    (List.length t.c_genome_bad)
