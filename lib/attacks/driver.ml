(** Runs catalogue attacks against defense configurations and inspects the
    resulting memory image. *)

module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Outcome = Pna_minicpp.Outcome
module Vmem = Pna_vmem.Vmem
module Trace = Pna_telemetry.Trace
module San = Pna_sanitizer.Sanitizer
module Flight = Pna_flight.Flight

type result = {
  attack : Catalog.t;
  config : Config.t;
  outcome : Outcome.t;
  verdict : Catalog.verdict;
  violations : San.violation list;
      (** what the shadow-memory oracle recorded; empty unless the run
          was sanitized *)
}

(* Build the shadow-memory oracle over a freshly loaded machine and wire
   it through the poisoning layers. *)
let oracle m ~scenario =
  let san = San.attach ~scenario (Machine.mem m) in
  Machine.attach_sanitizer m (Some san);
  san

(* Per-statement site context for violation reports: a lazy thunk, only
   forced if a violation actually records under this statement. *)
let site_hook san =
  fun func stmt ->
  San.set_site san
    (Some
       (fun () ->
         Fmt.str "%s: %a" func (Pna_minicpp.Cpp_print.pp_stmt 0) stmt))

(* The always-on black box: with PNA_FLIGHT_DIR set, every sanitized
   run records into an ambient flight session and a violating, crashed
   or timed-out run dumps its forensic bundle there automatically. *)
let flight_dir = Sys.getenv_opt "PNA_FLIGHT_DIR"

let crashed (o : Outcome.t) =
  match o.Outcome.status with
  | Outcome.Crashed _ | Outcome.Out_of_memory | Outcome.Timeout _ -> true
  | _ -> false

(* --- the execution engine --- *)

(* Compatibility names: the bytecode VM is the only engine, so each has
   one value and nothing reads it to choose a path. *)
type engine = [ `Bytecode ]

let env_engine : engine = `Bytecode
let engine_name (`Bytecode : engine) = "bytecode"

(* [unit_] lets a prepared scenario reuse its compilation instead of
   consulting the unit cache. *)
let exec ?max_steps ?on_stmt ?on_tick ?unit_ m prog ~entry =
  let u = match unit_ with Some u -> u | None -> Vm.load prog in
  Vm.run ?max_steps ?on_stmt ?on_tick m u ~entry

(* Judge, run and check on an already-loaded machine. [run] and
   [run_prepared] share this so a rewound machine and a fresh load are
   driven identically — the determinism the service layer relies on.
   The caller is expected to hold a "run" span open; memory-access
   deltas and the verdict are published into it. [flight] attaches the
   given flight-recorder session for the duration of the run. *)
let run_on ?max_steps ?san ?flight ?unit_ m (a : Catalog.t) ~config =
  let mem = Machine.mem m in
  let r0 = Vmem.total_reads mem and w0 = Vmem.total_writes mem in
  let f0 = Vmem.total_faults mem in
  let ints, strings = a.Catalog.mk_input m in
  Machine.set_input ~ints ~strings m;
  let auto, fl =
    match (flight, san, flight_dir) with
    | Some fl, _, _ -> (false, Some fl)
    | None, Some _, Some _ ->
      ( true,
        Some
          (Flight.start ~scenario:a.Catalog.id
             ~config:config.Config.name) )
    | _ -> (false, None)
  in
  (match (fl, san) with
  | Some fl, Some s -> Flight.attach fl s
  | _ -> ());
  let site =
    Option.map
      (fun s ->
        San.set_scenario s a.Catalog.id;
        San.unseal s;
        site_hook s)
      san
  in
  let on_stmt =
    match (site, fl) with
    | None, None -> None
    | _ ->
      Some
        (fun func stmt ->
          Option.iter Flight.tick fl;
          match site with Some h -> h func stmt | None -> ())
  in
  let outcome =
    exec ?max_steps ?on_stmt ?unit_ m a.Catalog.program ~entry:a.Catalog.entry
  in
  (* The oracle stops recording before the verdict: checks legitimately
     inspect freed blocks and stale tails to prove corruption. *)
  Option.iter San.seal san;
  (match (auto, fl, flight_dir) with
  | true, Some fl, Some dir
    when Flight.first_violation fl <> None || crashed outcome ->
    ignore
      (Flight.dump ~dir ~machine:m ?san
         ~status:(Fmt.str "%a" Outcome.pp_status outcome.Outcome.status)
         fl)
  | _ -> ());
  let verdict =
    Trace.with_span ~cat:"driver" "verdict" @@ fun () -> a.Catalog.check m outcome
  in
  (* built only when tracing: rendering the status costs a measurable
     share of a short VM run, and E13 bounds the disabled path *)
  if Pna_telemetry.Switch.enabled () then
    Trace.add_args
      ([
         ("status", Trace.Str (Fmt.str "%a" Outcome.pp_status outcome.Outcome.status));
         ("success", Trace.Bool verdict.Catalog.success);
         ("steps", Trace.Int outcome.Outcome.steps);
         ("mem_reads", Trace.Int (Vmem.total_reads mem - r0));
         ("mem_writes", Trace.Int (Vmem.total_writes mem - w0));
         ("mem_faults", Trace.Int (Vmem.total_faults mem - f0));
       ]
      @
      match san with
      | None -> []
      | Some s -> [ ("san_violations", Trace.Int (San.total s)) ]);
  {
    attack = a;
    config;
    outcome;
    verdict;
    violations = (match san with None -> [] | Some s -> San.violations s);
  }

let run_span ~image (a : Catalog.t) ~(config : Config.t) f =
  Trace.with_span ~cat:"driver" "run"
    ~args:
      [
        ("scenario", Trace.Str a.Catalog.id);
        ("config", Trace.Str config.Config.name);
        ("image", Trace.Str image);
      ]
    f

(* CI's second test pass exports PNA_SANITIZE=1 to run every driver-based
   test under the oracle; explicit [~sanitize] arguments still win. *)
let env_sanitize =
  match Sys.getenv_opt "PNA_SANITIZE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let run ?(config = Config.none) ?max_steps ?(sanitize = env_sanitize)
    ?engine:(_ : engine option) (a : Catalog.t) =
  run_span ~image:"fresh-load" a ~config @@ fun () ->
  let m = Interp.load ~config a.Catalog.program in
  let san = if sanitize then Some (oracle m ~scenario:a.Catalog.id) else None in
  run_on ?max_steps ?san m a ~config

(* A fully instrumented forensic run: sanitizer attached, Vmem write
   trace armed (so the bundle can name the writes that produced the
   corrupting bytes), a dedicated flight session, and the bundle dumped
   under [dir] whatever the outcome. *)
let run_forensic ?(config = Config.none) ?max_steps ~dir (a : Catalog.t) =
  run_span ~image:"fresh-load" a ~config @@ fun () ->
  let m = Interp.load ~config a.Catalog.program in
  let san = oracle m ~scenario:a.Catalog.id in
  Vmem.enable_trace (Machine.mem m);
  let fl =
    Flight.start ~scenario:a.Catalog.id ~config:config.Config.name
  in
  let r = run_on ?max_steps ~san ~flight:fl m a ~config in
  let bundle =
    Flight.dump ~dir ~machine:m ~san
      ~status:(Fmt.str "%a" Outcome.pp_status r.outcome.Outcome.status)
      fl
  in
  (r, fl, bundle)

(* Run the §5.1 hardened variant of [a] under the same attacker input. The
   hardened program is judged safe when it terminates normally and no
   hijack or corruption event fired. With [sanitize] the shadow oracle
   rides along; its records come back for false-positive auditing. *)
let run_hardened ?(config = Config.none) ?max_steps ?(sanitize = env_sanitize)
    (a : Catalog.t) =
  Option.map
    (fun program ->
      let m = Interp.load ~config program in
      let san =
        if sanitize then
          Some (oracle m ~scenario:(a.Catalog.id ^ "+hardened"))
        else None
      in
      let ints, strings = a.Catalog.mk_input m in
      Machine.set_input ~ints ~strings m;
      let on_stmt = Option.map site_hook san in
      let outcome = exec ?max_steps ?on_stmt m program ~entry:a.Catalog.entry in
      Option.iter San.seal san;
      let safe =
        Outcome.exited_normally outcome
        && not (List.exists Pna_machine.Event.is_hijack outcome.Outcome.events)
      in
      (outcome, safe, match san with None -> [] | Some s -> San.violations s))
    a.Catalog.hardened

(* --- prepared scenarios: load once, rewind per run --- *)

type prepared = {
  pr_attack : Catalog.t;
  pr_config : Config.t;
  pr_machine : Machine.t;
  pr_image : Machine.snapshot;  (** the post-load state rewound to *)
  pr_san : San.t option;
  pr_unit : Pna_minicpp.Compile.t;
      (** compiled once at prepare time, so rewound runs pay zero
          compilation *)
  mutable pr_restores : int;
}

let prepare ?(config = Config.none) ?(sanitize = env_sanitize)
    ?engine:(_ : engine option) (a : Catalog.t) =
  Trace.with_span ~cat:"driver" "prepare"
    ~args:[ ("scenario", Trace.Str a.Catalog.id) ]
  @@ fun () ->
  let m = Interp.load ~config a.Catalog.program in
  (* Attach before the snapshot so rewinds restore the clean shadow map
     along with the memory it mirrors. *)
  let san = if sanitize then Some (oracle m ~scenario:a.Catalog.id) else None in
  {
    pr_attack = a;
    pr_config = config;
    pr_machine = m;
    pr_image = Machine.snapshot m;
    pr_san = san;
    pr_unit = Vm.load a.Catalog.program;
    pr_restores = 0;
  }

let reset p =
  Trace.with_span ~cat:"driver" "rewind" (fun () ->
      Machine.restore p.pr_machine p.pr_image);
  p.pr_restores <- p.pr_restores + 1;
  p.pr_machine

let restores p = p.pr_restores

let run_prepared ?max_steps p =
  run_span ~image:"rewind" p.pr_attack ~config:p.pr_config @@ fun () ->
  run_on ?max_steps ?san:p.pr_san ~unit_:p.pr_unit (reset p) p.pr_attack
    ~config:p.pr_config

let prepared_input p =
  p.pr_attack.Catalog.mk_input (reset p)

(* --- frozen images: share one prepared snapshot across domains --- *)

(* Everything needed to rebuild a [prepared] without re-running
   the loader: the frozen post-load snapshot plus the immutable
   inputs. The snapshot is only ever read — [Machine.restore] never
   writes into it — so one image can back any number of domain-local
   replicas; frozen pages are shared, and each replica's rewinds write
   its dirty pages from the shared copy. *)
type image = {
  im_attack : Catalog.t;
  im_config : Config.t;
  im_sanitize : bool;
  im_unit : Pna_minicpp.Compile.t;
  im_snapshot : Machine.snapshot;
  im_env : Pna_layout.Layout.env;
}

let freeze p =
  {
    im_attack = p.pr_attack;
    im_config = p.pr_config;
    im_sanitize = p.pr_san <> None;
    im_unit = p.pr_unit;
    im_snapshot = p.pr_image;
    im_env = Machine.env p.pr_machine;
  }

(* Instantiate a domain-local replica: a blank machine shell over the
   same fixed address map, the oracle re-attached when the image was
   sanitized, then one restore to the shared snapshot. A fresh shell's
   stores are synced to the all-zero image, so that restore writes only
   the snapshot's non-zero pages (the heap shadow's redzone fill among
   them). After it the replica is synced to the snapshot, so its per-run
   rewinds write only dirty pages. [Layout.of_class] memoizes into the
   env's tables, so
   each replica gets its own copy of the env rather than racing other
   domains on the shared one (the layout values themselves are
   immutable). *)
let thaw im =
  Trace.with_span ~cat:"driver" "thaw"
    ~args:[ ("scenario", Trace.Str im.im_attack.Catalog.id) ]
  @@ fun () ->
  let env =
    {
      Pna_layout.Layout.classes = Hashtbl.copy im.im_env.Pna_layout.Layout.classes;
      layouts = Hashtbl.copy im.im_env.Pna_layout.Layout.layouts;
    }
  in
  let m = Machine.create ~config:im.im_config env in
  let san =
    if im.im_sanitize then Some (oracle m ~scenario:im.im_attack.Catalog.id)
    else None
  in
  Machine.restore m im.im_snapshot;
  {
    pr_attack = im.im_attack;
    pr_config = im.im_config;
    pr_machine = m;
    pr_image = im.im_snapshot;
    pr_san = san;
    pr_unit = im.im_unit;
    pr_restores = 0;
  }

(* --- supervised execution under a fault plan --- *)

module Chaos = Pna_chaos.Chaos
module Plan = Pna_chaos.Plan

type supervised = {
  sv_attack : Catalog.t;
  sv_config : Config.t;
  sv_plan : Plan.t;
  sv_attempts : int;  (** total runs, including the final one *)
  sv_final_attempt : int;
      (** 1-based index of the attempt whose outcome became the verdict *)
  sv_backoff_ms : int list;
      (** simulated exponential backoff before each retry, oldest first *)
  sv_fired : string list;  (** labels of the faults that actually fired *)
  sv_outcome : Outcome.t;
  sv_verdict : Catalog.verdict;
}

let default_budget = Vm.default_max_steps

(* Fleet-level retry accounting lands in the process-wide registry —
   supervision has no per-instance owner the way the service does.
   Registered eagerly: service workers supervise on several domains, and
   two domains forcing one lazy value at once raise
   [CamlinternalLazy.Undefined]. *)
module Metrics = Pna_telemetry.Metrics

let retries_total = Metrics.counter Metrics.default "pna_supervise_retries_total"
let giveups_total = Metrics.counter Metrics.default "pna_supervise_giveups_total"

(* A transient status is one worth retrying when it was provoked by an
   injected fault: the fault is one-shot, so the next attempt runs clean.
   Hijacks and defense stops are never retried — those are the behaviours
   under measurement, not infrastructure noise. *)
let transient (o : Outcome.t) =
  match o.Outcome.status with
  | Outcome.Crashed _ | Outcome.Out_of_memory | Outcome.Timeout _ -> true
  | _ -> false

let supervise ?(config = Config.none) ?(max_retries = 3) ?(jitter_pct = 0)
    ?(max_steps = default_budget) ?reload ?engine:(_ : engine option) ~plan
    (a : Catalog.t) =
  let eng = Chaos.create plan in
  (* Jitter is seeded from the plan, so a supervised run stays replayable
     from its plan alone — same plan, same backoff schedule. *)
  let jitter_rng =
    if jitter_pct > 0 then
      Some (Pna_rand.Rand.create (plan.Plan.seed lxor 0xb40ff5))
    else None
  in
  let backoff_ms attempt =
    let base = 1 lsl (attempt - 1) in
    match jitter_rng with
    | None -> base
    | Some rng ->
      base + Pna_rand.Rand.int rng (1 + (base * jitter_pct / 100))
  in
  let load =
    (* [reload] lets a serving layer hand out a rewound prepared machine
       instead of rebuilding the image for every attempt *)
    match reload with
    | Some f -> f
    | None -> fun () -> Interp.load ~config a.Catalog.program
  in
  let run_once () =
    match
      let m = load () in
      let ints, strings = a.Catalog.mk_input m in
      let strings = Chaos.perturb_strings eng strings in
      Machine.set_input ~ints ~strings m;
      Chaos.arm eng m;
      let budget = Chaos.budget eng ~default:max_steps in
      let o =
        exec ~max_steps:budget ~on_tick:(Chaos.tick eng) m a.Catalog.program
          ~entry:a.Catalog.entry
      in
      (o, Some m)
    with
    | r -> r
    | exception exn ->
      (* the supervisor's no-escape guarantee: whatever an injected fault
         breaks, the caller sees a classified outcome *)
      ( {
          Outcome.status =
            Outcome.Crashed
              (Fmt.str "unhandled exception: %s" (Printexc.to_string exn));
          events = [];
          output = [];
          steps = 0;
        },
        None )
  in
  let rec go attempt backoffs =
    let fired_before = List.length (Chaos.fired eng) in
    let outcome, m =
      Trace.with_span ~cat:"driver" "attempt"
        ~args:[ ("index", Trace.Int attempt) ]
        (fun () ->
          let r = run_once () in
          Trace.add_args
            [
              ( "status",
                Trace.Str
                  (Fmt.str "%a" Outcome.pp_status (fst r).Outcome.status) );
            ];
          r)
    in
    let injected = List.length (Chaos.fired eng) > fired_before in
    if injected && transient outcome && attempt <= max_retries then begin
      (* backoff is simulated (recorded, not slept): 1, 2, 4, ... ms,
         plus seeded jitter when [jitter_pct] asks for it *)
      let ms = backoff_ms attempt in
      Metrics.incr retries_total;
      Trace.instant ~cat:"driver" "retry"
        ~args:
          [ ("after_attempt", Trace.Int attempt); ("backoff_ms", Trace.Int ms) ];
      go (attempt + 1) (ms :: backoffs)
    end
    else begin
      (* a transient, injected failure that exhausted the attempt cap is
         a give-up — distinct from a verdict reached on a clean run *)
      if injected && transient outcome && attempt > max_retries then
        Metrics.incr giveups_total;
      (* [attempt] is the attempt whose run produced this outcome: the
         supervisor retries strictly in sequence, so the surviving run
         is both the last and the verdict-producing one. Record it
         explicitly so downstream output can say which run was judged. *)
      let outcome =
        match outcome.Outcome.status with
        | Outcome.Exited c when attempt > 1 ->
          {
            outcome with
            Outcome.status =
              Outcome.Recovered
                { attempts = attempt; final_attempt = attempt; exit_code = c };
          }
        | _ -> outcome
      in
      let verdict =
        match m with
        | Some m -> (
          try a.Catalog.check m outcome
          with exn ->
            Catalog.failure "check raised %s" (Printexc.to_string exn))
        | None -> Catalog.failure "run aborted before execution"
      in
      Trace.add_args [ ("final_attempt", Trace.Int attempt) ];
      {
        sv_attack = a;
        sv_config = config;
        sv_plan = plan;
        sv_attempts = attempt;
        sv_final_attempt = attempt;
        sv_backoff_ms = List.rev backoffs;
        sv_fired = Chaos.fired eng;
        sv_outcome = outcome;
        sv_verdict = verdict;
      }
    end
  in
  Trace.with_span ~cat:"driver" "supervise"
    ~args:
      [
        ("scenario", Trace.Str a.Catalog.id);
        ("config", Trace.Str config.Config.name);
        ("plan_seed", Trace.Int plan.Plan.seed);
      ]
  @@ fun () -> go 1 []

let pp_supervised ppf s =
  Fmt.pf ppf
    "@[<v2>%s under %s, plan seed %d: %a@,attempts: %d (verdict from attempt %d)%a%a@,verdict: %s@]"
    s.sv_attack.Catalog.id s.sv_config.Config.name s.sv_plan.Plan.seed
    Outcome.pp_status s.sv_outcome.Outcome.status s.sv_attempts
    s.sv_final_attempt
    (fun ppf -> function
      | [] -> ()
      | ms -> Fmt.pf ppf "@,backoff ms: %a" Fmt.(list ~sep:comma int) ms)
    s.sv_backoff_ms
    (fun ppf -> function
      | [] -> ()
      | fired -> Fmt.pf ppf "@,fired: %a" Fmt.(list ~sep:comma string) fired)
    s.sv_fired s.sv_verdict.Catalog.detail

(* --- memory inspection helpers for attack checks --- *)

let global_addr m name = Machine.global_addr_exn m name
let u32 m addr = Vmem.read_u32 (Machine.mem m) addr
let f64 m addr = Vmem.read_f64 (Machine.mem m) addr
let tainted m addr len = Vmem.range_tainted (Machine.mem m) addr len
let bytes m addr len = Vmem.read_bytes (Machine.mem m) addr len

let global_u32 ?(off = 0) m name = u32 m (global_addr m name + off)
let global_f64 ?(off = 0) m name = f64 m (global_addr m name + off)
let global_tainted ?(off = 0) m name len = tainted m (global_addr m name + off) len

let output_contains (o : Outcome.t) needle =
  let contains s =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  List.exists contains o.Outcome.output

let pp_result ppf r =
  Fmt.pf ppf "@[<v2>%s under %s: %s@,outcome: %a@,verdict: %s@]" r.attack.Catalog.id
    r.config.Config.name
    (if r.verdict.Catalog.success then "ATTACK SUCCEEDED" else "attack failed")
    Outcome.pp_status r.outcome.Outcome.status r.verdict.Catalog.detail
