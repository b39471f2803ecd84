(** pna — command-line front end for the placement-new attack study.

    [gate <ID>...|all] runs the experiment gates E1–E20 of
    EXPERIMENTS.md from one registry ({!Pna_gen.Gates}): each gate prints
    its report, then a verdict line from the same bool that sets the exit
    status. The other subcommands are tools rather than gates:
    [list]/[run]/[source]/[inspect]/[layout]/[coverage] for exploration,
    [audit <ID>] for one attack's static findings, [chaos] to dump or
    replay fault plans, [sanitize] for the PNASan report,
    [generate]/[fuzz]/[corpus] for the generative attack catalogue,
    [record-vm-fixture] to re-record E19's reference observations,
    [batch]/[serve] to drive the parallel scenario service,
    [serve-tcp]/[loadgen]/[compact] for the TCP front end and its
    crash-safe memo log, [trace]/[stats] for the telemetry exporters
    ([trace --wire] for a cross-process sampled run, [trace --merge] to
    fuse per-process exports), [forensics] to replay an attack from its
    flight-recorder bundle, [top] to poll a serving process's metrics
    over the wire, and [check]/[exec]/[harden] for MiniC++ source
    files. *)

open Cmdliner
module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module E = Pna.Experiments
module Telemetry = Pna_telemetry.Telemetry
module Trace = Pna_telemetry.Trace
module Metrics = Pna_telemetry.Metrics
module Jsonx = Pna_telemetry.Jsonx
module Flight = Pna_flight.Flight
module Server = Pna_net.Server
module Client = Pna_net.Client
module Loadgen = Pna_net.Loadgen
module Memolog = Pna_net.Memolog

let config_arg =
  let parse s =
    match Config.by_name s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Fmt.str "unknown config %s (try: %s)" s
             (String.concat ", "
                (List.map
                   (fun c -> c.Config.name)
                   (Config.pool_discipline :: Config.all)))))
  in
  let print ppf c = Fmt.string ppf c.Config.name in
  Arg.conv (parse, print)

let config_t =
  Arg.(
    value
    & opt config_arg Config.none
    & info [ "d"; "defense" ] ~docv:"CONFIG"
        ~doc:"Defense configuration (none, stackguard, shadow-stack, \
              bounds-check, sanitize, nx-stack, strict-align, \
              pool-discipline, full).")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the event stream.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (a : Catalog.t) ->
        Fmt.pr "%-14s L%-3s §%-8s %-9s %s@." a.Catalog.id
          (match a.Catalog.listing with Some l -> string_of_int l | None -> "--")
          a.Catalog.section
          (Catalog.segment_name a.Catalog.segment)
          a.Catalog.name)
      All.attacks
  in
  Cmd.v (Cmd.info "list" ~doc:"List the attack catalogue.")
    Term.(const run $ const ())

(* ---- run ---- *)

let sanitize_t =
  Arg.(value & flag & info [ "sanitize" ]
         ~doc:"Attach the PNASan shadow-memory oracle and print the              violations it records (the verdict is unchanged — the oracle              never halts execution).")

let pp_violations ppf = function
  | [] -> Fmt.pf ppf "sanitizer: no violations@."
  | vs ->
    Fmt.pf ppf "sanitizer: %d violation record(s)@." (List.length vs);
    List.iter
      (fun v -> Fmt.pf ppf "  %a@." Pna_sanitizer.Sanitizer.pp_violation v)
      vs

let run_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let run id config verbose sanitize =
    match All.find id with
    | None ->
      Fmt.epr "unknown attack %s; see `pna_cli list`@." id;
      exit 1
    | Some a ->
      let r = Driver.run ~config ~sanitize a in
      Fmt.pr "%a@." Driver.pp_result r;
      if sanitize then Fmt.pr "%a" pp_violations r.Driver.violations;
      if verbose then
        List.iter
          (fun e -> Fmt.pr "  event: %s@." (Pna_machine.Event.to_string e))
          r.Driver.outcome.Pna_minicpp.Outcome.events;
      (match Driver.run_hardened ~config ~sanitize a with
      | None -> ()
      | Some (o, safe, vs) ->
        Fmt.pr "hardened variant: %s (%a)@."
          (if safe then "safe" else "STILL VULNERABLE")
          Pna_minicpp.Outcome.pp_status o.Pna_minicpp.Outcome.status;
        if sanitize then Fmt.pr "%a" pp_violations vs);
      if not r.Driver.verdict.Catalog.success then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one attack (and its hardened variant, if any).")
    Term.(const run $ id_t $ config_t $ verbose_t $ sanitize_t)

(* ---- sanitize: PNASan violation report over the catalogue ---- *)

let sanitize_cmd =
  let run config =
    let module San = Pna_sanitizer.Sanitizer in
    Fmt.pr "PNASan violation report — catalogue under %s@.@." config.Config.name;
    List.iter
      (fun (a : Catalog.t) ->
        let r = Driver.run ~config ~sanitize:true a in
        let first =
          match r.Driver.violations with
          | [] -> "no violation"
          | v :: _ ->
            Fmt.str "first: %s at 0x%08x (%s)" (San.kind_name v.San.v_kind)
              v.San.v_addr
              (match v.San.v_access with
              | Pna_vmem.Fault.Read -> "read"
              | Pna_vmem.Fault.Write -> "write"
              | Pna_vmem.Fault.Execute -> "execute")
        in
        Fmt.pr "%-14s %-9s %d record(s); %s@." a.Catalog.id
          (if r.Driver.verdict.Catalog.success then "SUCCESS" else "blocked")
          (List.length r.Driver.violations)
          first;
        List.iter (fun v -> Fmt.pr "    %a@." San.pp_violation v)
          r.Driver.violations;
        (match Driver.run_hardened ~config ~sanitize:true a with
        | None -> ()
        | Some (_, safe, vs) ->
          Fmt.pr "  hardened: %s, %d violation record(s)@."
            (if safe then "safe" else "UNSAFE")
            (List.length vs);
          List.iter (fun v -> Fmt.pr "    %a@." San.pp_violation v) vs);
        Fmt.pr "@.")
      All.attacks
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:"Run the whole catalogue (and hardened variants) under the              PNASan shadow-memory oracle and print every recorded              violation — the CI artifact report.")
    Term.(const run $ config_t)

(* ---- audit: one attack's static findings ---- *)

let audit_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let run id =
    match All.find id with
    | None ->
      Fmt.epr "unknown attack %s@." id;
      exit 1
    | Some a ->
      Fmt.pr "--- vulnerable program ---@.%a@." Pna_analysis.Audit.pp_report
        (Pna_analysis.Audit.analyze a.Catalog.program);
      Option.iter
        (fun h ->
          Fmt.pr "--- hardened program ---@.%a@." Pna_analysis.Audit.pp_report
            (Pna_analysis.Audit.analyze h))
        a.Catalog.hardened
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Detailed static findings for one attack and its hardened twin \
             (the E7 table is $(b,pna gate E7)).")
    Term.(const run $ id_t)

(* ---- chaos: E9's fault plans, dumped or replayed ---- *)

let chaos_cmd =
  let module Plan = Pna_chaos.Plan in
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"With $(b,--dump-plans): base seed; plan k uses seed N+k.")
  in
  let trials_t =
    Arg.(value & opt int 10 & info [ "trials" ] ~docv:"N"
           ~doc:"With $(b,--dump-plans): how many plans to print.")
  in
  let rate_t =
    Arg.(value & opt float 1.0 & info [ "fault-rate" ] ~docv:"R"
           ~doc:"With $(b,--dump-plans): fault-density multiplier.")
  in
  let dump_t =
    Arg.(value & flag & info [ "dump-plans" ]
           ~doc:"Print the seeded plans the E9 sweep draws.")
  in
  let replay_t =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"PLAN-FILE"
           ~doc:"Replay one dumped plan against every E9 victim.")
  in
  let one_config_t =
    Arg.(value & opt (some config_arg) None
         & info [ "d"; "defense" ] ~docv:"CONFIG"
             ~doc:"With $(b,--replay): one defense configuration \
                   (default: all of them).")
  in
  let run seed trials rate dump replay config =
    let configs =
      match config with Some c -> [ c ] | None -> Config.all
    in
    match replay with
    | Some path -> (
      match Plan.of_string (read_file path) with
      | Error msg ->
        Fmt.epr "%s: %s@." path msg;
        exit 1
      | Ok plan ->
        let escaped = ref false in
        List.iter
          (fun (a : Catalog.t) ->
            List.iter
              (fun config ->
                match Driver.supervise ~config ~plan a with
                | s -> Fmt.pr "%a@.@." Driver.pp_supervised s
                | exception exn ->
                  escaped := true;
                  Fmt.pr "%s under %s: ESCAPED EXCEPTION %s@.@."
                    a.Catalog.id config.Config.name (Printexc.to_string exn))
              configs)
          (E.e9_programs ());
        if !escaped then exit 1 else `Ok ())
    | None when dump ->
      for k = 0 to trials - 1 do
        Fmt.pr "%s@." (Plan.to_string (Plan.generate ~rate ~seed:(seed + k) ()))
      done;
      `Ok ()
    | None ->
      `Error
        (true, "pass --dump-plans or --replay; the E9 sweep is `pna gate E9'")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Print the seeded fault plans of the E9 sweep, or replay one plan \
             under supervision against every victim (exit 1 on an escaped \
             exception). The sweep itself is $(b,pna gate E9).")
    Term.(ret (const run $ seed_t $ trials_t $ rate_t $ dump_t $ replay_t
               $ one_config_t))

(* ---- the scenario service: batch / serve ---- *)

module Service = Pna_service.Service

let jobs_t =
  Arg.(value & opt int 4 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains; clamped by the host's recommended domain              count (floor 4, so small hosts still exercise concurrency).")

let max_steps_t =
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
         ~doc:"Per-job deadline in interpreter steps.")

let metrics_t =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable telemetry for the run and append a Prometheus-style              dump of the service and default registries.")

let json_t =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the service stats as a JSON object instead of the              pretty-printed block.")

(* With --metrics: the service registry first (memo, queue-wait,
   restore-vs-load), then the process-wide default registry (machine
   defense events) when anything landed there. *)
let dump_metrics svc =
  Fmt.pr "@.%a" Pna_service.Service.pp_prometheus svc;
  Fmt.pr "%a" Metrics.pp_prometheus Metrics.default

let batch_cmd =
  let verify_t =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Re-run the batch sequentially through the driver and exit              non-zero unless every pooled reply matches.")
  in
  let one_config_t =
    Arg.(value & opt (some config_arg) None
         & info [ "d"; "defense" ] ~docv:"CONFIG"
             ~doc:"Restrict the matrix to one defense configuration              (default: all of them).")
  in
  let run jobs max_steps verify config metrics json =
    if metrics then Telemetry.enable ();
    let configs = match config with Some c -> [ c ] | None -> Config.all in
    let js = Service.matrix_jobs ~configs ?max_steps () in
    let svc = Service.create ~jobs () in
    let workers = Service.jobs svc in
    let replies, secs = Service.timed (fun () -> Service.run_batch svc js) in
    let st = Service.stats svc in
    List.iter (fun r -> Fmt.pr "%a@." Service.pp_reply r) replies;
    if json then
      Fmt.pr "@.%a@." Pna_telemetry.Jsonx.pp (Service.stats_json st)
    else
      Fmt.pr "@.%d jobs on %d workers in %.3fs (%.0f jobs/s)@.%a@."
        (List.length js) workers secs
        (float_of_int (List.length js) /. Float.max secs 1e-9)
        Service.pp_stats st;
    if metrics then dump_metrics svc;
    Service.shutdown svc;
    if verify then begin
      let sequential =
        List.map
          (fun (j : Service.job) ->
            Service.reply_of_result
              (Driver.run ~config:j.Service.j_config ?max_steps
                 j.Service.j_attack))
          js
      in
      let strip (r : Service.reply) = { r with Service.r_cached = false } in
      let mismatches =
        List.filter
          (fun (a, b) -> strip a <> strip b)
          (List.combine replies sequential)
      in
      match mismatches with
      | [] -> Fmt.pr "@.verify: all %d replies match the sequential driver@."
                (List.length js)
      | ms ->
        List.iter
          (fun (a, b) ->
            Fmt.pr "@.MISMATCH@.  pooled:     %a@.  sequential: %a@."
              Service.pp_reply a Service.pp_reply b)
          ms;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run the attack x defense matrix through the parallel scenario              service.")
    Term.(const run $ jobs_t $ max_steps_t $ verify_t $ one_config_t
          $ metrics_t $ json_t)

let serve_cmd =
  let requests_t =
    Arg.(value & opt int 200 & info [ "n"; "requests" ] ~docv:"N"
           ~doc:"Length of the synthetic request stream.")
  in
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Stream seed; the same seed always yields the same stream.")
  in
  let chaos_every_t =
    Arg.(value & opt int 7 & info [ "chaos-every" ] ~docv:"K"
           ~doc:"Every K-th request runs supervised under a seeded fault              plan (0 disables chaos requests).")
  in
  let run jobs requests seed chaos_every verbose metrics json =
    if metrics then Telemetry.enable ();
    let js = Service.synth_stream ~chaos_every ~seed ~n:requests () in
    let svc = Service.create ~jobs () in
    let workers = Service.jobs svc in
    let replies, secs = Service.timed (fun () -> Service.run_batch svc js) in
    let st = Service.stats svc in
    if verbose then List.iter (fun r -> Fmt.pr "%a@." Service.pp_reply r) replies;
    let wins =
      List.length (List.filter (fun r -> r.Service.r_success) replies)
    in
    if json then Fmt.pr "%a@." Pna_telemetry.Jsonx.pp (Service.stats_json st)
    else
      Fmt.pr "served %d requests (seed %d) on %d workers in %.3fs (%.0f req/s)@.\
              attacks succeeded on %d of %d requests@.%a@."
        requests seed workers secs
        (float_of_int requests /. Float.max secs 1e-9)
        wins requests Service.pp_stats st;
    if metrics then dump_metrics svc;
    Service.shutdown svc
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a deterministic synthetic request stream over the              catalogue and report throughput.")
    Term.(const run $ jobs_t $ requests_t $ seed_t $ chaos_every_t $ verbose_t
          $ metrics_t $ json_t)

(* ---- layout ---- *)

let layout_cmd =
  let run () =
    let env = Pna_minicpp.Interp.build_env
        (Pna_minicpp.Ast.program
           ~classes:
             (Pna_attacks.Schema.base_classes @ Pna_attacks.Schema.virtual_classes)
           [])
    in
    List.iter
      (fun c ->
        Fmt.pr "%a@.@." Pna_layout.Layout.pp (Pna_layout.Layout.of_class env c))
      [ "Student"; "GradStudent"; "StudentV"; "GradStudentV" ]
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print the running example's object layouts.")
    Term.(const run $ const ())

(* ---- source ---- *)

let source_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let run id =
    match All.find id with
    | None ->
      Fmt.epr "unknown attack %s@." id;
      exit 1
    | Some a ->
      Fmt.pr "// %s — %s (§%s)@.// goal: %s@.@.%a@." a.Catalog.id
        a.Catalog.name a.Catalog.section a.Catalog.goal
        Pna_minicpp.Cpp_print.pp_program a.Catalog.program;
      Option.iter
        (fun h ->
          Fmt.pr "// ---- hardened variant (§5.1 correct coding) ----@.@.%a@."
            Pna_minicpp.Cpp_print.pp_program h)
        a.Catalog.hardened
  in
  Cmd.v
    (Cmd.info "source" ~doc:"Print an attack's program as C++ source.")
    Term.(const run $ id_t)

(* ---- inspect ---- *)

let inspect_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let run id config =
    match All.find id with
    | None ->
      Fmt.epr "unknown attack %s@." id;
      exit 1
    | Some a ->
      let m = Pna_minicpp.Interp.load ~config a.Catalog.program in
      Fmt.pr "=== %s — %s ===@.@." a.Catalog.id a.Catalog.name;
      Fmt.pr "memory map:@.%a@.@." Pna_vmem.Vmem.pp (Pna_machine.Machine.mem m);
      Fmt.pr "globals:@.";
      List.iter
        (fun g ->
          let name = g.Pna_minicpp.Ast.g_name in
          match Pna_machine.Machine.global m name with
          | Some (addr, ty) ->
            Fmt.pr "  0x%08x %-14s %a (%d bytes)@." addr name
              Pna_layout.Ctype.pp ty
              (Pna_layout.Layout.sizeof (Pna_machine.Machine.env m) ty)
          | None -> ())
        a.Catalog.program.Pna_minicpp.Ast.p_globals;
      Fmt.pr "@.classes:@.";
      List.iter
        (fun c ->
          Fmt.pr "%a@.@." Pna_layout.Layout.pp
            (Pna_layout.Layout.of_class (Pna_machine.Machine.env m)
               c.Pna_layout.Class_def.c_name))
        a.Catalog.program.Pna_minicpp.Ast.p_classes;
      Fmt.pr "attacker input against this image:@.";
      let ints, strings = a.Catalog.mk_input m in
      Fmt.pr "  ints:    %a@." Fmt.(Dump.list (fun ppf v -> pf ppf "0x%08x" v)) ints;
      Fmt.pr "  strings: %a@." Fmt.(Dump.list Dump.string) strings;
      (* run it and show the post-mortem *)
      Pna_machine.Machine.set_input ~ints ~strings m;
      let o =
        Pna_minicpp.Vm.run m (Pna_minicpp.Vm.load a.Catalog.program)
          ~entry:a.Catalog.entry
      in
      Fmt.pr "@.run: %a@." Pna_minicpp.Outcome.pp_status o.Pna_minicpp.Outcome.status;
      Fmt.pr "events:@.";
      List.iter
        (fun e -> Fmt.pr "  %s@." (Pna_machine.Event.to_string e))
        o.Pna_minicpp.Outcome.events;
      Fmt.pr "@.post-mortem globals (value / tainted bytes):@.";
      List.iter
        (fun g ->
          let name = g.Pna_minicpp.Ast.g_name in
          match Pna_machine.Machine.global m name with
          | Some (addr, ty) ->
            let size = Pna_layout.Layout.sizeof (Pna_machine.Machine.env m) ty in
            Fmt.pr "  %-14s 0x%08x  taint %d/%d@." name
              (Pna_vmem.Vmem.read_u32 (Pna_machine.Machine.mem m) addr)
              (Pna_vmem.Vmem.tainted_bytes (Pna_machine.Machine.mem m) addr size)
              size
          | None -> ())
        a.Catalog.program.Pna_minicpp.Ast.p_globals
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Dump an attack's process image, attacker input and post-mortem.")
    Term.(const run $ id_t $ config_t)

(* ---- coverage (statement-level profiling; formerly `trace`) ---- *)

let coverage_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let run id config =
    match All.find id with
    | None ->
      Fmt.epr "unknown attack %s@." id;
      exit 1
    | Some a ->
      let m = Pna_minicpp.Interp.load ~config a.Catalog.program in
      let ints, strings = a.Catalog.mk_input m in
      Pna_machine.Machine.set_input ~ints ~strings m;
      let cov, hook = Pna.Coverage.collector () in
      let o =
        Pna_minicpp.Vm.run ~on_stmt:hook m (Pna_minicpp.Vm.load a.Catalog.program)
          ~entry:a.Catalog.entry
      in
      Fmt.pr "%s under %s: %a@.@." a.Catalog.id config.Config.name
        Pna_minicpp.Outcome.pp_status o.Pna_minicpp.Outcome.status;
      Fmt.pr "%a@." Pna.Coverage.pp (cov, a.Catalog.program)
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Run an attack with statement-level profiling: what executed,              where, how often.")
    Term.(const run $ id_t $ config_t)

(* ---- trace: Chrome Trace Event export of one run ---- *)

let trace_cmd =
  let id_t =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let chaos_seed_t =
    Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"N"
           ~doc:"Run supervised under the fault plan generated from seed N,              so retry attempts appear as spans.")
  in
  let wire_t =
    Arg.(value & flag & info [ "wire" ]
           ~doc:"Instead of one scenario, run an in-process server plus a              sampled load generator and emit the merged client+server              Chrome trace: every sampled request is one connected span              tree across the wire.")
  in
  let merge_t =
    Arg.(value & opt_all string [] & info [ "merge" ] ~docv:"TRACE.json"
           ~doc:"Merge already-exported Chrome traces (e.g. the client and              server halves of a wire run, from two processes) into one              document on stdout; span linkage survives because it lives              in trace_id/span_id/parent_id args. Repeatable.")
  in
  let wire_n_t =
    Arg.(value & opt int 96 & info [ "wire-requests" ] ~docv:"N"
           ~doc:"Requests for the $(b,--wire) run.")
  in
  let run id config chaos_seed wire merge wire_n =
    match merge with
    | _ :: _ ->
      let traces =
        List.map
          (fun path ->
            match Pna_telemetry.Jsonx.of_string (read_file path) with
            | Ok j -> j
            | Error e ->
              Fmt.epr "%s: %s@." path e;
              exit 1
            | exception Sys_error e ->
              Fmt.epr "%s@." e;
              exit 1)
          merge
      in
      Fmt.pr "%s@."
        (Pna_telemetry.Jsonx.to_string (Trace.merge_chrome traces))
    | [] ->
      if wire then begin
        Telemetry.enable ();
        Trace.reset ();
        let svc = Service.create ~jobs:2 () in
        let server = Server.start svc in
        let r =
          Loadgen.run ~conns:2 ~window:8 ~distinct:12 ~sample_every:4
            ~host:"127.0.0.1" ~port:(Server.port server) ~n:wire_n ~seed:18 ()
        in
        Server.stop server;
        Service.shutdown svc;
        Fmt.epr "%a@." Loadgen.pp r;
        Trace.export_chrome Fmt.stdout
      end
      else
        match id with
        | None ->
          Fmt.epr "trace: need an ATTACK-ID (or --wire / --merge)@.";
          exit 1
        | Some id -> (
          match All.find id with
          | None ->
            Fmt.epr "unknown attack %s@." id;
            exit 1
          | Some a ->
            Telemetry.enable ();
            Trace.reset ();
            (match chaos_seed with
            | None ->
              let r = Driver.run ~config a in
              Fmt.epr "%s under %s: %a@." a.Catalog.id config.Config.name
                Pna_minicpp.Outcome.pp_status
                r.Driver.outcome.Pna_minicpp.Outcome.status
            | Some seed ->
              let plan = Pna_chaos.Plan.generate ~seed () in
              let s = Driver.supervise ~config ~plan a in
              Fmt.epr "%a@." Driver.pp_supervised s);
            (* the trace goes to stdout so `pna trace l13 > trace.json`
               loads straight into Perfetto; the verdict above goes to
               stderr *)
            Trace.export_chrome Fmt.stdout)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one scenario with telemetry on and emit a Chrome Trace Event              JSON file (Perfetto / chrome://tracing) on stdout; or              $(b,--wire) for a traced client+server run, or $(b,--merge) to              combine per-process trace files.")
    Term.(const run $ id_t $ config_t $ chaos_seed_t $ wire_t $ merge_t
          $ wire_n_t)

(* ---- stats: registry dump over a sequential sweep ---- *)

let stats_cmd =
  let id_t =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let run id config =
    let attacks =
      match id with
      | None -> All.attacks
      | Some id -> (
        match All.find id with
        | Some a -> [ a ]
        | None ->
          Fmt.epr "unknown attack %s@." id;
          exit 1)
    in
    Telemetry.enable ();
    List.iter (fun a -> ignore (Driver.run ~config a)) attacks;
    (* the default registry now holds pna_events_total{kind} for the
       sweep; vmem access totals are per machine and reported by E13 *)
    Fmt.pr "%a" Metrics.pp_prometheus Metrics.default
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the catalogue (or one attack) under a defense and dump the              default metrics registry in Prometheus text format.")
    Term.(const run $ id_t $ config_t)

(* ---- gen: the generative attack catalogue (generate / fuzz / corpus) and
   the E19 fixture recorder ---- *)

module Genome = Pna_gen.Genome
module GenBuild = Pna_gen.Build
module GenOracle = Pna_gen.Oracle
module GenFuzz = Pna_gen.Fuzz
module GenCorpus = Pna_gen.Corpus
module VmGate = Pna_gen.Vmgate

let gen_seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Generator seed. The genome stream, every oracle verdict and              the corpus bytes are a pure function of it.")

let gen_n_t default =
  Arg.(value & opt int default & info [ "n"; "count" ] ~docv:"N"
         ~doc:"Scenarios to generate.")

let load_corpus path =
  match GenCorpus.load path with
  | Ok gs -> gs
  | Error m ->
    Fmt.epr "%s: %s@." path m;
    exit 1

let pp_genome_line ppf g =
  Fmt.pf ppf "%-14s %s" (Genome.id g) (Genome.summary g)

let show_genome gs id where =
  match List.find_opt (fun g -> Genome.id g = id) gs with
  | None ->
    Fmt.epr "no genome %s in %s@." id where;
    exit 1
  | Some g ->
    Fmt.pr "// %s — %s@.@.%a@." (Genome.id g) (Genome.summary g)
      Pna_minicpp.Cpp_print.pp_program (GenBuild.program_of g)

let generate_cmd =
  let out_t =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Save the raw (unfiltered) genome stream as a corpus file.")
  in
  let show_t =
    Arg.(value & opt (some string) None & info [ "show" ] ~docv:"GENOME-ID"
           ~doc:"Print one genome's scenario as C++ source instead of the              table.")
  in
  let run seed n out show =
    let rng = Pna_rand.Rand.create (seed lxor 0x9e47f3) in
    let gs = List.init n (fun _ -> Genome.generate rng) in
    (match show with
    | Some id -> show_genome gs id (Fmt.str "the first %d draws of seed %d" n seed)
    | None -> List.iter (fun g -> Fmt.pr "%a@." pp_genome_line g) gs);
    Option.iter
      (fun p ->
        GenCorpus.save p gs;
        Fmt.epr "wrote %d genome(s) to %s@." (List.length gs) p)
      out
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Draw placement-new scenarios from the seeded grammar: list their              shapes, print one as C++ source, or save the stream as a corpus              file.")
    Term.(const run $ gen_seed_t $ gen_n_t 20 $ out_t $ show_t)

let fuzz_cmd =
  let out_t =
    Arg.(value & opt (some string) None & info [ "o"; "corpus" ] ~docv:"PATH"
           ~doc:"Save the coverage-novel corpus (the genomes that lit new              statement or shadow-state features).")
  in
  let repros_t =
    Arg.(value & opt (some string) None & info [ "repros" ] ~docv:"PATH"
           ~doc:"Save the minimized genome of every divergence fingerprint as              a corpus file — the replayable repro artifact.")
  in
  let budget_t =
    Arg.(value & opt int 40 & info [ "minimize-budget" ] ~docv:"N"
           ~doc:"Oracle re-runs the minimizer may spend per divergence.")
  in
  let progress_t =
    Arg.(value & opt int 0 & info [ "progress" ] ~docv:"N"
           ~doc:"Print a deterministic progress line to stderr every N              genomes (0 disables). Counts only — two campaigns with the              same seed print identical lines.")
  in
  let run seed n out repros budget progress =
    let s =
      GenFuzz.campaign ~n ~minimize_budget:budget ~progress_every:progress
        ~seed ()
    in
    Fmt.pr "%a@." GenFuzz.pp s;
    List.iter
      (fun (d : GenFuzz.divergence) ->
        Fmt.pr "divergence [%s] %s@.  first %s, minimized %s, %d hit(s)@."
          (GenOracle.dkind_label d.GenFuzz.c_kind)
          d.GenFuzz.c_detail
          (Genome.id d.GenFuzz.c_genome)
          (Genome.id d.GenFuzz.c_minimized)
          d.GenFuzz.c_hits)
      s.GenFuzz.f_divergences;
    Option.iter
      (fun p ->
        GenCorpus.save p s.GenFuzz.f_corpus;
        Fmt.epr "wrote %d corpus genome(s) to %s@." s.GenFuzz.f_kept p)
      out;
    Option.iter
      (fun p ->
        let ms =
          List.map (fun (d : GenFuzz.divergence) -> d.GenFuzz.c_minimized)
            s.GenFuzz.f_divergences
        in
        GenCorpus.save p ms;
        Fmt.epr "wrote %d minimized repro(s) to %s@." (List.length ms) p)
      repros;
    if s.GenFuzz.f_escaped > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Run a generative fuzz campaign: a seeded genome stream through              the differential oracle, with coverage-filtered corpus              collection, divergence dedup + minimization and static-checker              precision/recall. Exits non-zero on any escaped exception.")
    Term.(const run $ gen_seed_t $ gen_n_t 1000 $ out_t $ repros_t $ budget_t
          $ progress_t)

let corpus_cmd =
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CORPUS")
  in
  let replay_t =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"Run every genome back through the differential oracle and              print its verdict line; exits non-zero if any run escapes.")
  in
  let show_t =
    Arg.(value & opt (some string) None & info [ "show" ] ~docv:"GENOME-ID"
           ~doc:"Print one genome's scenario as C++ source instead of the              table.")
  in
  let run path replay show =
    let gs = load_corpus path in
    match show with
    | Some id -> show_genome gs id path
    | None ->
      Fmt.pr "%s: %d genome(s)@." path (List.length gs);
      let escaped = ref 0 in
      List.iter
        (fun g ->
          if replay then begin
            let rep = GenOracle.run g in
            if rep.GenOracle.o_escaped then incr escaped;
            Fmt.pr "%-14s %-9s %-6s viol:[%s] div:%d@." (Genome.id g)
              rep.GenOracle.o_status
              (if rep.GenOracle.o_write_viol then "hot" else "benign")
              (String.concat ","
                 (List.map
                    (fun (k, n) ->
                      Fmt.str "%s x%d" (Pna_sanitizer.Sanitizer.kind_name k) n)
                    rep.GenOracle.o_viol))
              (List.length rep.GenOracle.o_divergences)
          end
          else Fmt.pr "%a@." pp_genome_line g)
        gs;
      if !escaped > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Inspect a saved corpus: list genomes, replay them through the              differential oracle, or print one as C++ source.")
    Term.(const run $ path_t $ replay_t $ show_t)

let record_vm_fixture_cmd =
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let commit_t =
    Arg.(value & opt string "unknown" & info [ "commit" ] ~docv:"SHA"
           ~doc:"The commit stamped into the fixture header.")
  in
  let run path commit =
    let text = VmGate.record ~commit ~recorded_with:"bytecode VM" () in
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  Cmd.v
    (Cmd.info "record-vm-fixture"
       ~doc:"Write the VM's observations of every E19 row (the catalogue \
             under defenses off and full, plain and sanitized; the seed-42 \
             1000-genome stream; the fixed plain, sanitized, deadline and \
             chaos-supervised genome sets) to FILE as a new fixture. \
             Re-recording replaces the tree-walker's observations with the \
             VM's own, so it is only for a deliberate, reviewed change of \
             behaviour (a new attack, a generator change); diff the result \
             against lib/gen/vmgate_fixture.txt. $(b,pna gate E19) checks \
             the committed fixture.")
    Term.(const run $ path_t $ commit_t)

(* ---- gate: the experiment gates E1–E20 ---- *)

module Gates = Pna_gen.Gates

let gate_cmd =
  let ids_t =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Gates to run, in registry order whatever the order given: \
                 E1, E2 (covers E3), E4 ... E20, or $(b,all).")
  in
  let run ids =
    match Gates.select ids with
    | Error m -> `Error (false, m)
    | Ok gates -> if E.run_gates Fmt.stdout gates then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "gate"
       ~man:
         (`S "GATES"
         :: List.map (fun (g : E.gate) -> `I (g.E.id, g.E.doc)) Gates.all)
       ~doc:"Run experiment gates: each prints its report and then its \
             verdict line, and a verdict summary closes the run. Exits 1 \
             when any gate fails.")
    Term.(ret (const run $ ids_t))

(* ---- net: the TCP front end (serve-tcp / loadgen / compact) ---- *)

let host_t =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind or connect to.")

let serve_tcp_cmd =
  let port_t =
    Arg.(value & opt int 7341 & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"Port to listen on (0 picks an ephemeral port).")
  in
  let inflight_t =
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission-control cap: requests admitted but unfinished.              Excess is answered with a shed reply and a retry-after hint,              never queued without bound.")
  in
  let memo_log_t =
    Arg.(value & opt (some string) None & info [ "memo-log" ] ~docv:"PATH"
           ~doc:"Persist the memo cache to this append-only log: recovered              on start (a torn tail from a crash is truncated), appended as              workers compute. Compact offline with $(b,compact).")
  in
  let steps_cap_t =
    Arg.(value & opt int 2_000_000 & info [ "max-steps-cap" ] ~docv:"N"
           ~doc:"Ceiling clamped onto every request's step deadline.")
  in
  let loops_t =
    Arg.(value & opt int 1 & info [ "loops" ] ~docv:"N"
           ~doc:"Select-loop domains sharing the listener (accept-fanout).              Each connection is owned by the loop that accepted it for its              whole life; the in-flight and connection caps stay global.")
  in
  let corpus_t =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"PATH"
           ~doc:"Load a generated corpus and register its scenarios, so              requests can target gen-XXXXXXXX ids alongside the paper              catalogue.")
  in
  let trace_out_t =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH"
           ~doc:"With $(b,--metrics): write the server-side Chrome trace here              on drain, for merging with a client trace via              $(b,pna trace --merge).")
  in
  let run jobs host port max_inflight memo_log max_steps_cap loops corpus
      metrics trace_out =
    if metrics || trace_out <> None then Telemetry.enable ();
    Option.iter
      (fun p ->
        let gs = load_corpus p in
        List.iter (fun g -> All.register (GenBuild.scenario g)) gs;
        Fmt.pr "pna: registered %d generated scenario(s) from %s@."
          (List.length gs) p)
      corpus;
    let svc = Service.create ~jobs () in
    let server =
      Server.start
        ~config:
          { Server.default_config with host; port; max_inflight; memo_log;
            max_steps_cap; loops = max 1 loops }
        svc
    in
    Fmt.pr "pna: serving on %s:%d (%d workers, %d loop(s)%s)@." host
      (Server.port server) (Service.jobs svc) (max 1 loops)
      (match memo_log with
      | None -> ""
      | Some p ->
        Fmt.str
          ", memo log %s: %d entries recovered, %d torn bytes dropped, %d \
           duplicate(s) a compaction would drop, %d record(s) without a \
           stable digest skipped"
          p
          (Server.recovered server) (Server.torn_bytes server)
          (Server.dup_entries server) (Server.skipped_entries server));
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler;
    while not !stop do
      Unix.sleepf 0.2
    done;
    Fmt.pr "pna: draining...@.";
    Server.stop server;
    Fmt.pr "%a@." Metrics.pp_prometheus (Server.registry server);
    Fmt.pr "%a@." Service.pp_stats (Service.stats svc);
    Option.iter
      (fun path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Trace.export_chrome (Format.formatter_of_out_channel oc));
        Fmt.pr "pna: wrote server trace to %s@." path)
      trace_out;
    Service.shutdown svc
  in
  Cmd.v
    (Cmd.info "serve-tcp"
       ~doc:"Serve the scenario service over TCP: length-prefixed CRC-framed              requests, bounded admission with shed replies, graceful drain on              SIGINT/SIGTERM, optional crash-safe on-disk memo log.")
    Term.(const run $ jobs_t $ host_t $ port_t $ inflight_t $ memo_log_t
          $ steps_cap_t $ loops_t $ corpus_t $ metrics_t $ trace_out_t)

let loadgen_cmd =
  let port_t =
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"Server port to drive.")
  in
  let n_t =
    Arg.(value & opt int 10_000 & info [ "n"; "requests" ] ~docv:"N"
           ~doc:"Total requests to issue.")
  in
  let conns_t =
    Arg.(value & opt int 4 & info [ "c"; "conns" ] ~docv:"N"
           ~doc:"Parallel connections (one domain each).")
  in
  let window_t =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"N"
           ~doc:"Pipelined requests outstanding per connection.")
  in
  let chaos_t =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"Inject socket faults on the send path: partial writes,              stalls, corrupt bytes, hard resets.")
  in
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Request-mix and fault-plan seed.")
  in
  let corpus_t =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"PATH"
           ~doc:"Draw the request mix from a generated corpus's genome ids              instead of the paper catalogue. The server must have been              started with the same $(b,--corpus) file.")
  in
  let sample_t =
    Arg.(value & opt int 0 & info [ "sample" ] ~docv:"N"
           ~doc:"Wire-trace every Nth request (0 disables): the request              carries a trace context, the server links its spans under              ours, and the client-side trace is exported for merging              with the server's.")
  in
  let trace_out_t =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH"
           ~doc:"Write the client-side Chrome trace here after the run              (merge with the server's via $(b,pna trace --merge)).")
  in
  let run host port n conns window chaos seed corpus sample trace_out =
    let targets =
      Option.map
        (fun p -> List.map (fun g -> Genome.id g) (load_corpus p))
        corpus
    in
    if sample > 0 then Telemetry.enable ();
    let r =
      Loadgen.run ?targets ~conns ~window ~chaos ~sample_every:sample ~host
        ~port ~n ~seed ()
    in
    Fmt.pr "%a@." Loadgen.pp r;
    Option.iter
      (fun path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Trace.export_chrome (Format.formatter_of_out_channel oc));
        Fmt.epr "wrote client trace to %s@." path)
      trace_out;
    if r.Loadgen.lg_hung > 0 || r.Loadgen.lg_sig_conflicts > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a serve-tcp server with a deterministic pipelined request              mix — over the paper catalogue or a generated corpus — and              report latency percentiles; exits non-zero on hung requests or              divergent replies.")
    Term.(const run $ host_t $ port_t $ n_t $ conns_t $ window_t $ chaos_t
          $ seed_t $ corpus_t $ sample_t $ trace_out_t)

(* ---- forensics: flight-recorder bundle + timeline reconstruction ---- *)

let forensics_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID")
  in
  let out_t =
    Arg.(value & opt string "pna-forensics" & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Directory to write the forensic bundle under (one              subdirectory per scenario/config pair).")
  in
  let run id config out =
    match All.find id with
    | None ->
      Fmt.epr "unknown attack %s@." id;
      exit 1
    | Some a ->
      let r, _session, bundle = Driver.run_forensic ~config ~dir:out a in
      Fmt.pr "%a@." Flight.report bundle;
      Fmt.pr "bundle: %s@." bundle;
      ignore r
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:"Run one scenario fully instrumented — PNASan oracle, Vmem write              trace, flight-recorder session — dump the forensic bundle              (timeline, events, writes, trace, shadow excerpt, verdict) and              print the reconstructed attack timeline.")
    Term.(const run $ id_t $ config_t $ out_t)

(* ---- top: poll a server's metrics over the wire ---- *)

let top_cmd =
  let port_t =
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"Server port to poll.")
  in
  let polls_t =
    Arg.(value & opt int 1 & info [ "n"; "polls" ] ~docv:"N"
           ~doc:"How many snapshots to take.")
  in
  let interval_t =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Delay between snapshots.")
  in
  let run host port polls interval =
    match Client.connect ~host ~port () with
    | Error f ->
      Fmt.epr "top: %s@." (Client.failure_label f);
      exit 1
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for i = 1 to polls do
            match Client.stats c i with
            | Ok payload ->
              if polls > 1 then Fmt.pr "-- poll %d/%d --@." i polls;
              Fmt.pr "%s@?" payload;
              if i < polls then Unix.sleepf interval
            | Error f ->
              Fmt.epr "top: %s@." (Client.failure_label f);
              exit 1
          done)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Poll a serve-tcp server's Prometheus snapshot over the wire              (Stats frames) — server and service-pool registries, no HTTP              endpoint needed.")
    Term.(const run $ host_t $ port_t $ polls_t $ interval_t)

let compact_cmd =
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MEMO-LOG")
  in
  let run path =
    match Memolog.compact path with
    | kept, dropped ->
      Fmt.pr
        "%s: kept %d record(s), dropped %d duplicate or pre-digest record(s)@."
        path kept dropped
    | exception Sys_error m | exception Failure m ->
      Fmt.epr "compact: %s@." m;
      exit 1
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Offline-compact a memo log: drop duplicate records, keeping the              first per key (what the in-memory cache would have served), and              records without a stable request digest (never served),              atomically via write-aside and rename.")
    Term.(const run $ path_t)

(* ---- check / exec: the toolchain on user-supplied source files ---- *)

let parse_file path =
  match Pna_minicpp.Parser.program (read_file path) with
  | prog -> prog
  | exception Pna_minicpp.Parser.Error { line; message } ->
    Fmt.epr "%s:%d: parse error: %s@." path line message;
    exit 1
  | exception Pna_minicpp.Lexer.Error { line; message } ->
    Fmt.epr "%s:%d: lex error: %s@." path line message;
    exit 1

let file_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cpp")

let check_cmd =
  let run path =
    let prog = parse_file path in
    let r = Pna_analysis.Audit.analyze prog in
    let actionable = Pna_analysis.Audit.actionable r.Pna_analysis.Audit.placement in
    if actionable = [] then begin
      Fmt.pr "%s: no actionable placement-new findings@." path;
      exit 0
    end
    else begin
      List.iter (fun f -> Fmt.pr "%s: %a@." path Pna_analysis.Finding.pp f) actionable;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse a MiniC++ source file and run the placement-new checker              (exit 1 when findings exist) — CI-gate style.")
    Term.(const run $ file_t)

let exec_cmd =
  let ints_t =
    Arg.(value & opt_all int [] & info [ "i"; "int" ] ~docv:"N"
           ~doc:"Attacker int input (repeatable).")
  in
  let strs_t =
    Arg.(value & opt_all string [] & info [ "s"; "str" ] ~docv:"S"
           ~doc:"Attacker string input (repeatable).")
  in
  let run path config ints strings verbose =
    let prog = parse_file path in
    let o =
      Pna_minicpp.Vm.execute ~config ~input_ints:ints ~input_strings:strings
        prog
    in
    Fmt.pr "%a@." Pna_minicpp.Outcome.pp o;
    if verbose then
      List.iter
        (fun e -> Fmt.pr "  event: %s@." (Pna_machine.Event.to_string e))
        o.Pna_minicpp.Outcome.events
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Parse a MiniC++ source file and run it on the simulated machine.")
    Term.(const run $ file_t $ config_t $ ints_t $ strs_t $ verbose_t)

(* ---- harden ---- *)

let harden_cmd =
  let id_or_file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK-ID|FILE.cpp")
  in
  let run target =
    let prog =
      if Sys.file_exists target then parse_file target
      else
        match All.find target with
        | Some a -> a.Catalog.program
        | None ->
          Fmt.epr "%s: neither a file nor a known attack id@." target;
          exit 1
    in
    let repaired = Pna_analysis.Hardener.harden prog in
    Fmt.pr "// auto-hardened: %d placement site(s) repaired (§5.1 / §7)@.@.%a@."
      (Pna_analysis.Hardener.count_repairs prog)
      Pna_minicpp.Cpp_print.pp_program repaired;
    let residual = Pna_analysis.Placement_checker.actionable repaired in
    if residual <> [] then begin
      Fmt.epr "// residual findings the repair cannot address:@.";
      List.iter (fun f -> Fmt.epr "//   %a@." Pna_analysis.Finding.pp f) residual
    end
  in
  Cmd.v
    (Cmd.info "harden"
       ~doc:"Automatically repair a program's placement discipline and print              the fixed source (the paper's §7 tool).")
    Term.(const run $ id_or_file_t)


let () =
  let doc = "reproduction of `A New Class of Buffer Overflow Attacks' (ICDCS 2011)" in
  let info = Cmd.info "pna_cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            sanitize_cmd;
            gate_cmd;
            audit_cmd;
            chaos_cmd;
            generate_cmd;
            fuzz_cmd;
            corpus_cmd;
            record_vm_fixture_cmd;
            batch_cmd;
            serve_cmd;
            layout_cmd;
            inspect_cmd;
            source_cmd;
            check_cmd;
            exec_cmd;
            coverage_cmd;
            trace_cmd;
            stats_cmd;
            serve_tcp_cmd;
            loadgen_cmd;
            compact_cmd;
            forensics_cmd;
            top_cmd;
            harden_cmd;
          ]))
