(** E19 — the one equivalence gate: every execution path against the
    recorded observations.

    The repository once carried two execution engines: a tree-walking
    evaluator over the AST and the compiled bytecode VM
    ({!Pna_minicpp.Compile} + {!Pna_minicpp.Vm}). Before the evaluator
    was deleted, everything it observed was recorded into
    [vmgate_fixture.txt]; this gate re-runs every recorded row on the VM
    and requires the same observation. The rows are

    - the whole attack catalogue under defenses off and fully on, plain
      and sanitized, at a 200k-step budget;
    - a seeded stream of generated genomes (the E17 corpus
      distribution), sanitized;
    - fixed seeded genome sets: plain and sanitized at 60k steps, a
      200-step sanitized deadline, and chaos-supervised runs.

    An observation is the outcome (status, step count, program output
    and a digest of the event stream), the verdict, a digest of the
    PNASan violation list, the per-run Vmem access-accounting deltas
    (reads, writes, taint writes, faults — which pin taint propagation
    byte for byte) and, for supervised runs, the retry history.

    The recorded row is also the reference for the faster paths. On the
    catalogue and [set:] rows the gate drives, besides the recorded run,

    - [rerun]: a second run on the same prepared machine, so its rewind
      blits the pages the first run dirtied;
    - [replica]: a run on a replica thawed from the frozen image;
    - [byte] (plain rows): the run supervised under an empty fault plan,
      whose identity chaos hook sends every access down the per-byte
      Vmem path instead of the multi-byte fast path;
    - [rewind] and [replica-rewind]: the prepared machine and the
      replica rewound once more, whose state must equal the loaded
      machine's byte for byte.

    The grinders ({!Pna_attacks.All.grinders}) spend their whole budget,
    so their catalogue rows get only the two rewind checks, the replica
    rewinding after a 20k-step prefix. A divergent, missing, extra or
    unparsable row fails the gate. *)

module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Machine = Pna_machine.Machine
module Event = Pna_machine.Event
module Vmem = Pna_vmem.Vmem
module Fault = Pna_vmem.Fault
module Outcome = Pna_minicpp.Outcome
module San = Pna_sanitizer.Sanitizer
module Plan = Pna_chaos.Plan
module Jsonx = Pna_telemetry.Jsonx
module Segment = Pna_vmem.Segment
module Perm = Pna_vmem.Perm
module R = Pna_rand.Rand

(* -- observations ------------------------------------------------------ *)

type obs = {
  o_status : string;  (** {!status_form} of the outcome status *)
  o_success : bool;
  o_detail : string;  (** the verdict's detail line *)
  o_steps : int;
  o_output : string list;
  o_events : string;  (** MD5 of the event stream's JSON lines *)
  o_violations : string;  (** MD5 of the printed violation list *)
  o_reads : int;
  o_writes : int;
  o_taint_writes : int;
  o_faults : int;
  o_supervision : string;
      (** supervised rows: attempts, final attempt, backoff, fired
          faults; empty otherwise *)
}

(* Exact printed forms: every field of every constructor, so equal
   forms mean structurally equal values. *)
let status_form : Outcome.status -> string = function
  | Outcome.Exited c -> Fmt.str "exited %d" c
  | Outcome.Arc_injection { via; symbol; tainted } ->
    Fmt.str "arc-injection %s %S %b" (Outcome.via_name via) symbol tainted
  | Outcome.Code_injection { via; target; tainted } ->
    Fmt.str "code-injection %s 0x%x %b" (Outcome.via_name via) target tainted
  | Outcome.Crashed m -> Fmt.str "crashed %S" m
  | Outcome.Stack_smashing_detected -> "stack-smashing-detected"
  | Outcome.Defense_blocked d -> Fmt.str "defense-blocked %S" d
  | Outcome.Timeout { steps } -> Fmt.str "timeout %d" steps
  | Outcome.Out_of_memory -> "out-of-memory"
  | Outcome.Internal_error m -> Fmt.str "internal-error %S" m
  | Outcome.Recovered { attempts; final_attempt; exit_code } ->
    Fmt.str "recovered %d %d %d" attempts final_attempt exit_code

let violation_form (v : San.violation) =
  Fmt.str "%s 0x%x %d %a %b %s %S %S %d" (San.kind_name v.San.v_kind)
    v.San.v_addr v.San.v_len Fault.pp_access v.San.v_access v.San.v_taint
    (San.state_name v.San.v_state) v.San.v_scenario v.San.v_site v.San.v_seq

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let events_digest evs =
  digest_lines (List.map (fun e -> Jsonx.to_string (Event.to_json e)) evs)

let violations_digest vs = digest_lines (List.map violation_form vs)

let accounting mem =
  ( Vmem.total_reads mem,
    Vmem.total_writes mem,
    Vmem.total_taint_writes mem,
    Vmem.total_faults mem )

let observation ?(supervision = "") (o : Outcome.t) (v : Catalog.verdict)
    violations (r, w, t, f) =
  {
    o_status = status_form o.Outcome.status;
    o_success = v.Catalog.success;
    o_detail = v.Catalog.detail;
    o_steps = o.Outcome.steps;
    o_output = o.Outcome.output;
    o_events = events_digest o.Outcome.events;
    o_violations = violations_digest violations;
    o_reads = r;
    o_writes = w;
    o_taint_writes = t;
    o_faults = f;
    o_supervision = supervision;
  }

(* [f ()] with the access-accounting delta it leaves on [mem]. *)
let accounted mem f =
  let r0, w0, t0, f0 = accounting mem in
  let x = f () in
  let r1, w1, t1, f1 = accounting mem in
  (x, (r1 - r0, w1 - w0, t1 - t0, f1 - f0))

(* One rewound run, the stats sampled immediately around [run_prepared]
   so only the run itself is in the window. *)
let observe_prepared ~max_steps p =
  let r, delta =
    accounted (Machine.mem (Driver.reset p)) (fun () ->
        Driver.run_prepared ~max_steps p)
  in
  observation r.Driver.outcome r.Driver.verdict r.Driver.violations delta

(* The same run down the per-byte path: supervised under an empty plan,
   whose identity chaos hook disables every Vmem fast path without
   changing a byte. The supervisor arms it after its own rewind, which
   would clear a hook armed earlier. The observation carries no retry
   history, so it compares with a plain row on every field. *)
let observe_byte_path ~max_steps ~config p (a : Catalog.t) =
  let s, delta =
    accounted (Machine.mem (Driver.reset p)) (fun () ->
        Driver.supervise ~config ~max_steps
          ~reload:(fun () -> Driver.reset p)
          ~plan:(Plan.empty 0) a)
  in
  observation s.Driver.sv_outcome s.Driver.sv_verdict [] delta

(* Everything a rewind is supposed to reproduce, as labelled live
   layers: segment geometry, permissions, contents and taint (straight
   off the backing bytes — the dirty bitmaps are copy-on-write
   bookkeeping and deliberately excluded), and the shadow map when a
   sanitizer is attached. States are compared byte for byte, not
   through a digest: hashing the ~2 MB would cost more than the runs it
   checks. *)
let machine_state m =
  List.concat_map
    (fun (s : Segment.t) ->
      let label =
        Fmt.str "%s|%x|%x|%s" (Segment.kind_name s.Segment.kind)
          s.Segment.base s.Segment.size (Perm.to_string s.Segment.perm)
      in
      [ (label, s.Segment.bytes); (label ^ "|taint", s.Segment.taint) ])
    (Vmem.segments (Machine.mem m))
  @
  match Machine.sanitizer m with
  | None -> []
  | Some sn ->
    List.map
      (fun (base, states) -> (Fmt.str "shadow|%x" base, states))
      (San.shadow_images sn)

let same_state a b =
  List.equal (fun (l, x) (l', y) -> String.equal l l' && Bytes.equal x y) a b

(* What one path saw of a row: an observation to compare with the
   recorded one, or whether a rewind restored the loaded state. *)
type seen = Observed of obs | Rewound of bool

(* A grinder's replica only needs a deterministic prefix that dirties
   pages before its rewind, not the whole grind. *)
let grinder_prefix = 20_000

(* The recorded run of a prepared row and, with [paths], a thunk that
   drives the row's other paths afterwards on the same prepared machine
   (only the two rewinds for a grinder). A fresh prepared machine is
   synced to its snapshot with no page dirty, so the first rewind copies
   nothing and [loaded] copies the post-load state. *)
let observe_run ~max_steps ~config ~sanitize ~paths (a : Catalog.t) =
  let p = Driver.prepare ~config ~sanitize a in
  let loaded =
    if paths then
      List.map (fun (l, b) -> (l, Bytes.copy b)) (machine_state (Driver.reset p))
    else []
  in
  let run = observe_prepared ~max_steps p in
  let more () =
    if not paths then []
    else
      let replica = Driver.thaw (Driver.freeze p) in
      let observed =
        if List.mem a.Catalog.id All.grinders then begin
          ignore (Driver.run_prepared ~max_steps:grinder_prefix replica);
          []
        end
        else
          ("rerun", Observed (observe_prepared ~max_steps p))
          :: ("replica", Observed (observe_prepared ~max_steps replica))
          ::
          (if sanitize then []
           else [ ("byte", Observed (observe_byte_path ~max_steps ~config p a)) ])
      in
      let rewound m = Rewound (same_state (machine_state m) loaded) in
      observed
      @ [ ("rewind", rewound (Driver.reset p));
          ("replica-rewind", rewound (Driver.reset replica)) ]
  in
  (run, more)

(* A supervised run under a generated fault plan. Each attempt loads a
   fresh image (the supervisor's default); the accounting is summed over
   every attempt's machine from its post-load state. *)
let observe_supervised ~max_steps ~chaos_seed (a : Catalog.t) =
  let loaded = ref [] in
  let reload () =
    let m = Pna_minicpp.Interp.load ~config:Config.none a.Catalog.program in
    loaded := (m, accounting (Machine.mem m)) :: !loaded;
    m
  in
  let s =
    Driver.supervise ~max_steps ~reload
      ~plan:(Plan.generate ~seed:chaos_seed ())
      a
  in
  let delta =
    List.fold_left
      (fun (r, w, t, f) (m, (r0, w0, t0, f0)) ->
        let r1, w1, t1, f1 = accounting (Machine.mem m) in
        (r + r1 - r0, w + w1 - w0, t + t1 - t0, f + f1 - f0))
      (0, 0, 0, 0) !loaded
  in
  let supervision =
    Fmt.str "attempts=%d final=%d backoff=%s fired=%s" s.Driver.sv_attempts
      s.Driver.sv_final_attempt
      (String.concat "," (List.map string_of_int s.Driver.sv_backoff_ms))
      (String.concat "," (List.map (Fmt.str "%S") s.Driver.sv_fired))
  in
  observation ~supervision s.Driver.sv_outcome s.Driver.sv_verdict [] delta

(* -- the recorded rows --------------------------------------------------- *)

(* A row: a stable key (no spaces) — its section, the catalogue id or
   [Genome.id], config, sanitize and budget — and the run that observes
   it: the observation the fixture records, then a thunk for the row's
   other paths. *)
type spec = {
  key : string;
  observe : unit -> obs * (unit -> (string * seen) list);
}

let catalogue_budget = 200_000
let set_budget = 60_000
let deadline_budget = 200
let default_seed = 42
let default_n = 1000

let san_label sanitize = if sanitize then "san" else "plain"
let row_key fields = String.concat ":" fields

(* [n] distinct genomes, in draw order, from one seeded stream. *)
let draw rng n =
  let seen = Hashtbl.create (2 * n) in
  let rec go acc k =
    if k = n then List.rev acc
    else
      let g = Genome.generate rng in
      let id = Genome.id g in
      if Hashtbl.mem seen id then go acc k
      else begin
        Hashtbl.add seen id ();
        go (g :: acc) (k + 1)
      end
  in
  go [] 0

let genome_run section ~max_steps ~sanitize ~paths g =
  let a = Build.scenario g in
  {
    key =
      row_key
        (section
        @ [ Genome.id g; "none"; san_label sanitize; string_of_int max_steps ]);
    observe =
      (fun () -> observe_run ~max_steps ~config:Config.none ~sanitize ~paths a);
  }

let catalogue =
  List.concat_map
    (fun (a : Catalog.t) ->
      List.concat_map
        (fun (config : Config.t) ->
          List.map
            (fun sanitize ->
              {
                key =
                  row_key
                    [ "cat"; a.Catalog.id; config.Config.name;
                      san_label sanitize; string_of_int catalogue_budget ];
                observe =
                  (fun () ->
                    observe_run ~max_steps:catalogue_budget ~config ~sanitize
                      ~paths:true a);
              })
            [ false; true ])
        [ Config.none; Config.full ])
    All.attacks

(* The stream reuses the oracle's step budget: a genome the oracle can
   classify is a genome the engine must reproduce. *)
let stream ~seed ~n =
  List.map
    (genome_run [ "stream"; string_of_int seed ]
       ~max_steps:Oracle.default_max_steps ~sanitize:true ~paths:false)
    (draw (R.create (seed lxor 0x19e4b3)) n)

let genome_sets () =
  let plain_and_sanitized =
    List.concat_map
      (fun g ->
        [ genome_run [ "set" ] ~max_steps:set_budget ~sanitize:false
            ~paths:true g;
          genome_run [ "set" ] ~max_steps:set_budget ~sanitize:true
            ~paths:true g ])
      (draw (R.create 0x5e7001) 300)
  in
  let deadline =
    List.map
      (genome_run [ "deadline" ] ~max_steps:deadline_budget ~sanitize:true
         ~paths:false)
      (draw (R.create 0xdead11) 60)
  in
  let chaos =
    let rng = R.create 0xc4a05 in
    List.map
      (fun g ->
        let chaos_seed = R.int rng 10_000 in
        let a = Build.scenario g in
        {
          key =
            row_key
              [ "chaos"; Genome.id g; string_of_int chaos_seed; "none";
                string_of_int set_budget ];
          observe =
            (fun () ->
              ( observe_supervised ~max_steps:set_budget ~chaos_seed a,
                fun () -> [] ));
        })
      (draw rng 60)
  in
  plain_and_sanitized @ deadline @ chaos

let specs ?(seed = default_seed) ?(n = default_n) () =
  catalogue @ stream ~seed ~n @ genome_sets ()

(* -- the fixture file ------------------------------------------------------ *)

let format_version = 1

(* One row per line:
   key status success detail steps n-output output... events violations
   reads writes taint-writes faults supervision
   with every free-text field an OCaml string literal. *)
let print_row key o =
  String.concat " "
    ([ key; Fmt.str "%S" o.o_status; string_of_bool o.o_success;
       Fmt.str "%S" o.o_detail; string_of_int o.o_steps;
       string_of_int (List.length o.o_output) ]
    @ List.map (Fmt.str "%S") o.o_output
    @ [ o.o_events; o.o_violations; string_of_int o.o_reads;
        string_of_int o.o_writes; string_of_int o.o_taint_writes;
        string_of_int o.o_faults; Fmt.str "%S" o.o_supervision ])

let parse_row line =
  let ib = Scanf.Scanning.from_string line in
  let str () = Scanf.bscanf ib " %S" Fun.id in
  let int () = Scanf.bscanf ib " %d" Fun.id in
  let word () = Scanf.bscanf ib " %s" Fun.id in
  match
    let key = word () in
    let o_status = str () in
    let o_success = Scanf.bscanf ib " %B" Fun.id in
    let o_detail = str () in
    let o_steps = int () in
    let o_output = List.init (int ()) (fun _ -> str ()) in
    let o_events = word () in
    let o_violations = word () in
    let o_reads = int () in
    let o_writes = int () in
    let o_taint_writes = int () in
    let o_faults = int () in
    let o_supervision = str () in
    Scanf.bscanf ib " %!" ();
    ( key,
      { o_status; o_success; o_detail; o_steps; o_output; o_events;
        o_violations; o_reads; o_writes; o_taint_writes; o_faults;
        o_supervision } )
  with
  | row -> Ok row
  | exception (Scanf.Scan_failure m | Failure m | Invalid_argument m) ->
    Error m
  | exception End_of_file -> Error "truncated row"

type fixture = {
  f_header : (string * string) list;  (** [# key: value] lines *)
  f_rows : (string * obs) list;
}

(* Header lines are [# key: value]; blank lines and other comments are
   skipped; everything else is a row. The first error — an unparsable or
   duplicate row — wins. *)
let parse text =
  let lines = String.split_on_char '\n' text in
  let seen = Hashtbl.create 4096 in
  let rec go lineno header rows = function
    | [] -> Ok { f_header = List.rev header; f_rows = List.rev rows }
    | l :: rest when String.trim l = "" -> go (lineno + 1) header rows rest
    | l :: rest when l.[0] = '#' ->
      let header =
        match String.index_opt l ':' with
        | Some i ->
          ( String.trim (String.sub l 1 (i - 1)),
            String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
          :: header
        | None -> header
      in
      go (lineno + 1) header rows rest
    | l :: rest -> (
      match parse_row l with
      | Ok (key, _) when Hashtbl.mem seen key ->
        Error (Fmt.str "line %d: duplicate row %s" lineno key)
      | Ok ((key, _) as row) ->
        Hashtbl.add seen key ();
        go (lineno + 1) header (row :: rows) rest
      | Error m -> Error (Fmt.str "line %d: unparsable row (%s)" lineno m))
  in
  match go 1 [] [] lines with
  | Error _ as e -> e
  | Ok f -> (
    match List.assoc_opt "format" f.f_header with
    | Some v when v = string_of_int format_version -> Ok f
    | Some v -> Error (Fmt.str "unsupported fixture format %s" v)
    | None -> Error "fixture header has no format version")

(* The fixture text for every row as this build observes it. *)
let record ~commit ~recorded_with ?(seed = default_seed) ?(n = default_n) () =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b
    "# E19 fixture: observations of every row, checked by `pna gate E19`.\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Fmt.str "# %s: %s\n" k v))
    [ ("format", string_of_int format_version); ("commit", commit);
      ("recorded-with", recorded_with); ("stream-seed", string_of_int seed);
      ("stream-n", string_of_int n) ];
  List.iter
    (fun s ->
      Buffer.add_string b (print_row s.key (fst (s.observe ())));
      Buffer.add_char b '\n')
    (specs ~seed ~n ());
  Buffer.contents b

(* -- the gate ------------------------------------------------------------ *)

(* One path's check of one row; a divergence when [dv_fields] names the
   fields that differ. *)
type divergence = { dv_key : string; dv_path : string; dv_fields : string list }

(* Every path, in report order; [run] is the one the fixture records. *)
let paths = [ "run"; "rerun"; "replica"; "byte"; "rewind"; "replica-rewind" ]

type t = {
  v_checked : int;  (** rows re-run and compared *)
  v_paths : (string * int) list;  (** checks per path, in {!paths} order *)
  v_missing : string list;  (** expected rows the fixture lacks *)
  v_extra : string list;  (** fixture rows nothing expects *)
  v_diverged : divergence list;
  v_error : string option;  (** the fixture did not parse *)
  v_header : (string * string) list;
  v_ok : bool;
}

let diff_fields a b =
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [ ("status", a.o_status = b.o_status);
      ("steps", a.o_steps = b.o_steps);
      ("output", a.o_output = b.o_output);
      ("events", a.o_events = b.o_events);
      ("verdict", a.o_success = b.o_success && a.o_detail = b.o_detail);
      ("violations", a.o_violations = b.o_violations);
      ( "accounting",
        a.o_reads = b.o_reads && a.o_writes = b.o_writes
        && a.o_taint_writes = b.o_taint_writes && a.o_faults = b.o_faults );
      ("supervision", a.o_supervision = b.o_supervision) ]

let diff_seen want = function
  | Observed o -> diff_fields want o
  | Rewound true -> []
  | Rewound false -> [ "state" ]

(* [select] restricts the gate to the rows whose key it accepts, on both
   sides: expected rows it rejects are not run, recorded rows it rejects
   are not reported as extra. *)
let run ?(fixture = Vmgate_fixture.text) ?(seed = default_seed)
    ?(n = default_n) ?(select = fun _ -> true) () =
  match parse fixture with
  | Error e ->
    { v_checked = 0; v_paths = []; v_missing = []; v_extra = [];
      v_diverged = []; v_error = Some e; v_header = []; v_ok = false }
  | Ok f ->
    let recorded = Hashtbl.of_seq (List.to_seq f.f_rows) in
    let specs = List.filter (fun s -> select s.key) (specs ~seed ~n ()) in
    let expected = Hashtbl.create 4096 in
    List.iter (fun s -> Hashtbl.replace expected s.key ()) specs;
    let checks = ref [] and missing = ref [] and checked = ref 0 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt recorded s.key with
        | None -> missing := s.key :: !missing
        | Some want ->
          incr checked;
          let run, more = s.observe () in
          List.iter
            (fun (path, seen) ->
              checks :=
                { dv_key = s.key; dv_path = path;
                  dv_fields = diff_seen want seen }
                :: !checks)
            (("run", Observed run) :: more ()))
      specs;
    let checks = List.rev !checks in
    let diverged = List.filter (fun c -> c.dv_fields <> []) checks in
    let extra =
      List.filter_map
        (fun (k, _) ->
          if select k && not (Hashtbl.mem expected k) then Some k else None)
        f.f_rows
    in
    {
      v_checked = !checked;
      v_paths =
        List.filter_map
          (fun p ->
            match List.filter (fun c -> c.dv_path = p) checks with
            | [] -> None
            | cs -> Some (p, List.length cs))
          paths;
      v_missing = List.rev !missing;
      v_extra = extra;
      v_diverged = diverged;
      v_error = None;
      v_header = f.f_header;
      v_ok = !missing = [] && extra = [] && diverged = [] && !checked > 0;
    }

let pp ppf t =
  Fmt.pf ppf "@[<v>E19 — every execution path == recorded observations@,%s@,"
    (String.make 100 '-');
  (match t.v_error with
  | Some e -> Fmt.pf ppf "fixture error: %s@," e
  | None -> ());
  List.iter
    (fun d ->
      Fmt.pf ppf "%-60s DIVERGES on %s  [%s]@," d.dv_key d.dv_path
        (String.concat "; " d.dv_fields))
    t.v_diverged;
  List.iter (fun k -> Fmt.pf ppf "%-60s MISSING from the fixture@," k) t.v_missing;
  List.iter (fun k -> Fmt.pf ppf "%-60s EXTRA in the fixture@," k) t.v_extra;
  let h k = Option.value ~default:"?" (List.assoc_opt k t.v_header) in
  Fmt.pf ppf
    "fixture: format %s, recorded with %s at %s@,\
     rows: %d checked, %d missing, %d extra (outcome, events, verdict, \
     violations, access accounting, supervision)@,\
     checks per path: %s (rewinds: loaded state byte for byte); %d \
     diverged@]"
    (h "format") (h "recorded-with") (h "commit") t.v_checked
    (List.length t.v_missing) (List.length t.v_extra)
    (String.concat ", "
       (List.map (fun (p, c) -> Fmt.str "%s %d" p c) t.v_paths))
    (List.length t.v_diverged)
