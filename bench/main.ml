(** Benchmark harness: one Bechamel group per experiment of DESIGN.md plus
    substrate micro-benchmarks. Prints one OLS-estimated time per bench
    and writes each group's estimates to [BENCH_<group>.json].

    Groups are selected with a comma-separated argument:
    {[ bench/main.exe e8,service ]}
    No argument runs everything.

    The E8 group is the quantitative half of the defense-overhead
    experiment: the same benign pool-server workload timed under every
    defense configuration. The service group is the quantitative half of
    E12: batch throughput at 1/2/4 domains plus the amortisation ladder
    (fresh load, snapshot rewind, memo hit). *)

open Bechamel
open Toolkit
module Config = Pna_defense.Config
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Catalog = Pna_attacks.Catalog

let stage = Staged.stage

(* ------------------------------------------------------------------ *)
(* substrate micro-benchmarks                                           *)

let vmem_for_micro =
  let open Pna_vmem in
  let m = Vmem.create () in
  let _ = Vmem.map m ~kind:Segment.Data ~base:0x1000 ~size:0x1000 ~perm:Perm.rw in
  m

let micro_group () =
  [
    Test.make ~name:"vmem/write_u32" (stage (fun () ->
        Pna_vmem.Vmem.write_u32 vmem_for_micro 0x1100 0xdeadbeef));
    Test.make ~name:"vmem/read_u32" (stage (fun () ->
        ignore (Pna_vmem.Vmem.read_u32 vmem_for_micro 0x1100)));
    Test.make ~name:"vmem/blit_64B" (stage (fun () ->
        Pna_vmem.Vmem.blit vmem_for_micro ~src:0x1100 ~dst:0x1400 ~len:64));
    Test.make ~name:"layout/compute_schema" (stage (fun () ->
        let env = Pna_layout.Layout.create_env () in
        List.iter (Pna_layout.Layout.define env)
          (Pna_attacks.Schema.base_classes @ Pna_attacks.Schema.virtual_classes);
        ignore (Pna_layout.Layout.of_class env "GradStudentV")));
    Test.make ~name:"heap/malloc_free_pair" (stage (
        let open Pna_vmem in
        let m = Vmem.create () in
        let _ = Vmem.map m ~kind:Segment.Heap ~base:0x10000 ~size:0x10000 ~perm:Perm.rw in
        let h = Pna_machine.Heap.create m ~base:0x10000 ~size:0x10000 in
        fun () ->
          match Pna_machine.Heap.malloc h 32 with
          | Some a -> Pna_machine.Heap.free h a
          | None -> assert false));
    Test.make ~name:"machine/load_image" (stage (fun () ->
        ignore (Interp.load ~config:Config.none Pna_attacks.L11_data_bss.attack.Catalog.program)));
    Test.make ~name:"interp/pool_server_100" (stage (fun () ->
        ignore (Pna.Workloads.run Pna.Workloads.pool_server ~n:100)));
    Test.make ~name:"interp/heap_churn_100" (stage (fun () ->
        ignore (Pna.Workloads.run Pna.Workloads.heap_churn ~n:100)));
  ]

(* ------------------------------------------------------------------ *)
(* vmem fast path vs per-byte reference path

   Each stage runs a fixed batch of operations so the per-call harness
   scaffolding (~hundreds of ns on small hosts) does not swamp the
   ~10 ns accessors being measured; divide by the batch size in the name
   for a per-op figure. The *_bytepath twins run the identical batch on
   a space with an identity chaos hook armed, which forces every access
   down the per-byte reference path without changing a byte — the
   before/after of the fast path. (An observer no longer does: it sees
   whole spans on the fast path.) *)

let mk_bench_vmem () =
  let open Pna_vmem in
  let m = Vmem.create () in
  let _ = Vmem.map m ~kind:Segment.Data ~base:0x1000 ~size:0x1000 ~perm:Perm.rw in
  m

let mk_bytepath_vmem () =
  let m = mk_bench_vmem () in
  Pna_vmem.Vmem.set_chaos m (Some (fun ~access:_ ~addr:_ ~byte -> byte));
  m

let u32_mix m () =
  let open Pna_vmem in
  let acc = ref 0 in
  for i = 0 to 511 do
    let addr = 0x1000 + (i land 0xff) * 4 in
    Vmem.write_u32 m addr i;
    acc := !acc + Vmem.read_u32 m addr
  done;
  ignore (Sys.opaque_identity !acc)

let blit_batch m () =
  for _ = 1 to 64 do
    Pna_vmem.Vmem.blit m ~src:0x1000 ~dst:0x1800 ~len:64
  done

let vmem_group () =
  let open Pna_vmem in
  let fast = mk_bench_vmem () in
  let byte = mk_bytepath_vmem () in
  let cstr = mk_bench_vmem () in
  Vmem.write_bytes cstr 0x1000 (String.make 63 'x' ^ "\000");
  let payload = String.make 256 'p' in
  [
    Test.make ~name:"vmem/u32_mix_1k" (stage (u32_mix fast));
    Test.make ~name:"vmem/u32_mix_1k_bytepath" (stage (u32_mix byte));
    Test.make ~name:"vmem/blit_64B_x64" (stage (blit_batch fast));
    Test.make ~name:"vmem/blit_64B_x64_bytepath" (stage (blit_batch byte));
    Test.make ~name:"vmem/write_bytes_256" (stage (fun () ->
        Vmem.write_bytes fast 0x1400 payload));
    Test.make ~name:"vmem/read_bytes_256" (stage (fun () ->
        ignore (Vmem.read_bytes fast 0x1400 256)));
    Test.make ~name:"vmem/read_cstring_64" (stage (fun () ->
        ignore (Vmem.read_cstring cstr 0x1000)));
    Test.make ~name:"vmem/fill_256" (stage (fun () ->
        Vmem.fill fast ~dst:0x1400 ~len:256 0x2a));
    Test.make ~name:"vmem/tainted_bytes_4k" (stage (fun () ->
        ignore (Vmem.tainted_bytes fast 0x1000 0x1000)));
  ]

(* ------------------------------------------------------------------ *)
(* experiment benches                                                   *)

(* attacks that complete in microseconds; the grinders are benched
   separately with their own budgets *)
let fast_attacks =
  List.filter (fun a -> not (List.mem a.Catalog.id All.grinders)) All.attacks

let bench_attack (a : Catalog.t) =
  Test.make ~name:("e1/" ^ a.Catalog.id) (stage (fun () ->
      ignore (Driver.run ~config:Config.none a)))

let e1_group () = List.map bench_attack fast_attacks

let e2_e3_group () =
  [
    Test.make ~name:"e2/naive_vs_stackguard" (stage (fun () ->
        ignore (Driver.run ~config:Config.stackguard Pna_attacks.L13_stack_ret.attack)));
    Test.make ~name:"e3/bypass_vs_stackguard" (stage (fun () ->
        ignore (Driver.run ~config:Config.stackguard Pna_attacks.L13_stack_ret.bypass)));
  ]

let e4_group () =
  [
    Test.make ~name:"e4/leak_array" (stage (fun () ->
        ignore (Driver.run Pna_attacks.L21_leak_array.attack)));
    Test.make ~name:"e4/leak_object" (stage (fun () ->
        ignore (Driver.run Pna_attacks.L22_leak_object.attack)));
  ]

(* E5: the DoS curve — time per request as the forced bound grows *)
let e5_group () =
  List.map
    (fun n ->
      Test.make ~name:(Fmt.str "e5/dos_n_%d" n) (stage (fun () ->
          ignore
            (Vm.execute ~config:Config.none ~max_steps:10_000_000
               ~input_ints:[ n ] Pna_attacks.L15_stack_var.program_))))
    [ 5; 100; 10_000 ]

let e6_group () =
  List.map
    (fun iters ->
      Test.make ~name:(Fmt.str "e6/memleak_%d_iters" iters) (stage (fun () ->
          let prog = Pna_attacks.L23_memleak.mk_program ~checked:false in
          let m = Interp.load ~config:Config.none prog in
          Machine.set_input ~ints:[ iters ] ~strings:[] m;
          ignore (Vm.run m (Vm.load prog) ~entry:"main"))))
    [ 50; 200 ]

let e7_group () =
  [
    Test.make ~name:"e7/placement_checker_all" (stage (fun () ->
        List.iter
          (fun (a : Catalog.t) ->
            ignore (Pna_analysis.Placement_checker.analyze a.Catalog.program))
          All.attacks));
    Test.make ~name:"e7/legacy_checker_all" (stage (fun () ->
        List.iter
          (fun (a : Catalog.t) ->
            ignore (Pna_analysis.Legacy_checker.analyze a.Catalog.program))
          All.attacks));
  ]

(* E8: the benign workload under each defense — the overhead table *)
let e8_group () =
  List.map
    (fun config ->
      Test.make
        ~name:(Fmt.str "e8/pool_server_500_%s" config.Config.name)
        (stage (fun () -> ignore (Pna.Workloads.run ~config Pna.Workloads.pool_server ~n:500))))
    (Config.all @ [ Config.pool_discipline ])

(* syntax toolchain: print and parse the whole catalogue *)
let syntax_group () =
  [
    Test.make ~name:"syntax/print_catalogue" (stage (fun () ->
        List.iter
          (fun (a : Catalog.t) ->
            ignore (Pna_minicpp.Cpp_print.program_to_string a.Catalog.program))
          All.attacks));
    Test.make ~name:"syntax/parse_catalogue" (stage (
        let sources =
          List.map
            (fun (a : Catalog.t) ->
              Pna_minicpp.Cpp_print.program_to_string a.Catalog.program)
            All.attacks
        in
        fun () ->
          List.iter (fun src -> ignore (Pna_minicpp.Parser.program src)) sources));
  ]

(* interprocedural vs intraprocedural analysis cost *)
let analysis_mode_group () =
  [
    Test.make ~name:"e7/intraproc_all" (stage (fun () ->
        List.iter
          (fun (a : Catalog.t) ->
            ignore (Pna_analysis.Placement_checker.analyze a.Catalog.program))
          All.attacks));
    Test.make ~name:"e7/interproc_all" (stage (fun () ->
        List.iter
          (fun (a : Catalog.t) ->
            ignore
              (Pna_analysis.Placement_checker.analyze ~interproc:true
                 a.Catalog.program))
          All.attacks));
  ]

(* wire format encode/decode round *)
let serial_group () =
  [
    Test.make ~name:"serial/encode_grad" (stage (fun () ->
        ignore
          (Pna_serial.Wire.encode
             (Pna_serial.Wire.grad_student ~courses:[ 1; 2; 3; 4 ] ()))));
    Test.make ~name:"serial/serve_datagram" (stage (
        let payload = Pna_serial.Wire.encode (Pna_serial.Wire.student ()) in
        fun () ->
          ignore (Driver.run ~config:Config.none Pna_attacks.Ser_remote_object.grad_object |> ignore);
          ignore payload));
  ]

(* E9: supervision overhead — the same benign workload raw, supervised
   under an empty plan (pure harness cost: hooks armed, nothing fires)
   and supervised under a transiently faulty plan (one retry) *)
let chaos_group () =
  let open Pna_chaos in
  [
    Test.make ~name:"e9/pool_server_64_raw" (stage (fun () ->
        ignore (Driver.run Pna.Experiments.benign_pool)));
    Test.make ~name:"e9/pool_server_64_supervised_clean" (stage (fun () ->
        ignore (Driver.supervise ~plan:(Plan.empty 0) Pna.Experiments.benign_pool)));
    Test.make ~name:"e9/pool_server_64_supervised_faulty" (stage (
        let plan =
          { Plan.seed = 0; faults = [ Plan.Raise_fault { at_step = 100 } ] }
        in
        fun () -> ignore (Driver.supervise ~plan Pna.Experiments.benign_pool)));
  ]

(* E11: hardening the whole catalogue *)
let e11_group () =
  [
    Test.make ~name:"e11/harden_catalogue" (stage (fun () ->
        List.iter
          (fun (a : Catalog.t) ->
            ignore (Pna_analysis.Hardener.harden a.Catalog.program))
          All.attacks));
  ]

(* ablation: image load vs full attack run — separates setup cost from
   interpretation cost *)
let ablation_group () =
  [
    Test.make ~name:"ablation/l13_load_only" (stage (fun () ->
        ignore (Interp.load ~config:Config.none (Pna_attacks.L13_stack_ret.mk_program ~checked:false))));
    Test.make ~name:"ablation/l13_full_run" (stage (fun () ->
        ignore (Driver.run Pna_attacks.L13_stack_ret.attack)));
  ]

(* E12: the scenario service — batch throughput at each domain count and
   the amortisation ladder a request descends: fresh image load, snapshot
   rewind of a prepared machine, a replica thawed from a frozen image
   (plain and sanitized), memo-cache hit (on a locally prepared key, and
   on one evicted from the worker's prepared cache) *)
module Service = Pna_service.Service

(* batch_32 is kept for continuity, but 32 jobs finish in ~10ms — too
   small to amortize domain spawn and GC rendezvous, which is why it
   historically showed anti-scaling. The 512/4096 rows are the realistic
   campaign shape (an E8/E17 sweep is thousands of scenarios) and the
   ones the scaling acceptance gates on. *)
let service_stream_of size =
  List.init size (fun _ ->
      Service.job ~config:Config.none ~max_steps:60_000
        Pna.Experiments.benign_pool)

(* A row whose fixture is built when the row starts and released when it
   ends, so no fixture outlives its row: a service's worker domains are
   shut down before the next row runs. *)
let with_fixture ~name ?(free = ignore) allocate fn =
  Test.make_with_resource ~name Test.uniq ~allocate ~free (stage fn)

(* Each batch row builds only its own stream and compacts before timing,
   so it starts from a settled heap whatever the rows before it left. *)
let bench_service_batch ~size n =
  with_fixture
    ~name:(Fmt.str "service/batch_%d_benign_%dd" size n)
    (fun () ->
      let stream = service_stream_of size in
      Gc.compact ();
      stream)
    (fun stream ->
      let svc = Service.create ~jobs:n ~memo:false () in
      ignore (Service.run_batch svc stream);
      Service.shutdown svc)

let warm_service ?prepared_cap js =
  let svc = Service.create ~jobs:1 ?prepared_cap () in
  Array.iter (fun j -> ignore (Service.exec svc j)) js;
  (svc, js, ref 0)

let shutdown_service (svc, _, _) = Service.shutdown svc

let service_group () =
  [
    bench_service_batch ~size:32 1;
    bench_service_batch ~size:32 2;
    bench_service_batch ~size:32 4;
    bench_service_batch ~size:512 1;
    bench_service_batch ~size:512 2;
    bench_service_batch ~size:512 4;
    bench_service_batch ~size:4096 1;
    bench_service_batch ~size:4096 4;
    Test.make ~name:"service/fresh_load_run" (stage (fun () ->
        ignore (Driver.run Pna.Experiments.benign_pool)));
    with_fixture ~name:"service/snapshot_rewind"
      (fun () -> Driver.prepare Pna.Experiments.benign_pool)
      (fun p -> ignore (Driver.reset p));
    with_fixture ~name:"service/run_prepared"
      (fun () -> Driver.prepare Pna.Experiments.benign_pool)
      (fun p -> ignore (Driver.run_prepared p));
    with_fixture ~name:"service/thaw"
      (fun () -> Driver.freeze (Driver.prepare Pna.Experiments.benign_pool))
      (fun im -> ignore (Driver.thaw im));
    with_fixture ~name:"service/thaw_sanitized"
      (fun () ->
        Driver.freeze (Driver.prepare ~sanitize:true Pna.Experiments.benign_pool))
      (fun im -> ignore (Driver.thaw im));
    with_fixture ~name:"service/memo_hit" ~free:shutdown_service
      (fun () ->
        warm_service
          [| Service.job ~config:Config.none Pna.Experiments.benign_pool |])
      (fun (svc, js, _) -> ignore (Service.exec svc js.(0)));
    (* a memo hit on a key that has left the worker's one-entry
       prepared cache: alternate two warm keys, so every hit finds the
       other key's machine local *)
    with_fixture ~name:"service/memo_hit_evicted" ~free:shutdown_service
      (fun () ->
        warm_service ~prepared_cap:1
          (Array.map
             (fun a -> Service.job ~config:Config.none a)
             [| Pna.Experiments.benign_pool; Pna_attacks.L13_stack_ret.attack |]))
      (fun (svc, js, i) ->
        incr i;
        ignore (Service.exec svc js.(!i land 1)));
  ]

(* sanitizer: what the PNASan oracle costs — the prepared driver path
   with no oracle (the production configuration E14 gates at 5% over the
   inline baseline), the same path with the shadow map attached, a raw
   attach (shadow build over a loaded image), the oracle attach a
   sanitized prepare or thaw pays (shadow build plus heap and frame
   poisoning), and the quarantining allocator vs the plain free path. *)
let sanitizer_group () =
  let module San = Pna_sanitizer.Sanitizer in
  [
    Test.make ~name:"sanitizer/run_prepared_off" (stage (
        let p = Driver.prepare Pna.Experiments.benign_pool in
        fun () -> ignore (Driver.run_prepared p)));
    Test.make ~name:"sanitizer/run_prepared_on" (stage (
        let p = Driver.prepare ~sanitize:true Pna.Experiments.benign_pool in
        fun () -> ignore (Driver.run_prepared p)));
    Test.make ~name:"sanitizer/attack_run_on" (stage (fun () ->
        ignore (Driver.run ~sanitize:true Pna_attacks.L13_stack_ret.attack)));
    Test.make ~name:"sanitizer/attach_shadow" (stage (
        let m = Interp.load ~config:Config.none Pna.Workloads.pool_server in
        fun () ->
          let san = San.attach (Machine.mem m) in
          San.detach san));
    Test.make ~name:"sanitizer/oracle_attach" (stage (
        let m = Interp.load ~config:Config.none Pna.Workloads.pool_server in
        fun () ->
          let san = San.attach (Machine.mem m) in
          Machine.attach_sanitizer m (Some san);
          Machine.attach_sanitizer m None;
          San.detach san));
    Test.make ~name:"sanitizer/quarantined_malloc_free" (stage (
        let open Pna_vmem in
        let m = Vmem.create () in
        let _ = Vmem.map m ~kind:Segment.Heap ~base:0x10000 ~size:0x10000 ~perm:Perm.rw in
        let h = Pna_machine.Heap.create m ~base:0x10000 ~size:0x10000 in
        let san = San.attach m in
        Pna_machine.Heap.set_sanitizer h (Some san);
        fun () ->
          match Pna_machine.Heap.malloc h 32 with
          | Some a -> Pna_machine.Heap.free h a
          | None -> assert false));
  ]

(* telemetry: the cost of the instrumentation layer itself — the
   disabled span gate (what every production run pays), the enabled
   span, registry increments/observations, and the exporters' JSON
   encoding. Spans land in this domain's ring buffer; the ring
   overwrites, so steady-state cost is what is measured. *)
let telemetry_group () =
  let module Tel = Pna_telemetry.Telemetry in
  let module Trace = Pna_telemetry.Trace in
  let module Metrics = Pna_telemetry.Metrics in
  let reg = Metrics.create () in
  let ctr = Metrics.counter reg "bench_counter_total" in
  let hist = Metrics.histogram reg "bench_hist_us" in
  let ev =
    Pna_machine.Event.Placement
      { site = "bench"; addr = 0x1000; size = 64; arena = Some 128 }
  in
  [
    Test.make ~name:"telemetry/span_disabled" (stage (fun () ->
        Tel.disable ();
        Trace.with_span "bench" (fun () -> ())));
    Test.make ~name:"telemetry/span_enabled" (stage (fun () ->
        Tel.enable ();
        Trace.with_span "bench" (fun () -> ())));
    Test.make ~name:"telemetry/instant_enabled" (stage (fun () ->
        Tel.enable ();
        Trace.instant "bench"));
    Test.make ~name:"telemetry/span_ctx_enabled" (stage (
        let ctx = Some (Trace.new_ctx ()) in
        fun () ->
          Tel.enable ();
          Trace.with_ctx ctx (fun () ->
              Trace.with_span "bench" (fun () -> ()))));
    Test.make ~name:"telemetry/emit_retroactive" (stage (fun () ->
        Tel.enable ();
        Trace.emit ~name:"bench" ~ts_us:1.0 ~dur_us:1.0 ~trace:(1, 2, 3) ()));
    Test.make ~name:"telemetry/counter_incr" (stage (fun () -> Metrics.incr ctr));
    Test.make ~name:"telemetry/histogram_observe" (stage (fun () ->
        Metrics.observe hist 123.4));
    Test.make ~name:"telemetry/event_to_json" (stage (fun () ->
        ignore
          (Pna_telemetry.Jsonx.to_string (Pna_machine.Event.to_json ev))));
    Test.make ~name:"telemetry/export_chrome_ring" (stage (fun () ->
        Tel.enable ();
        ignore (Fmt.str "%t" (fun ppf -> Trace.export_chrome ppf))));
  ]

(* net: the wire layer's own cost — frame encode/decode (the per-request
   protocol tax), CRC32 over a frame-sized buffer, and the memo-entry
   codec the persistent log pays per record. The end-to-end latency rows
   (net/loadgen_p50 and friends) are not Bechamel estimates: they come
   from a real server + load generator on loopback, appended after the
   group runs. *)
let net_group () =
  let module Frame = Pna_net.Frame in
  let req =
    Frame.Request
      {
        Frame.rq_corr = 42;
        rq_attack = "L13-stack-ret";
        rq_config = "stackguard";
        rq_chaos_seed = None;
        rq_max_steps = Some 60_000;
        rq_sanitize = false;
        rq_engine = `Bytecode;
        rq_trace = None;
      }
  in
  let encoded = Frame.encode req in
  let traced_req =
    match req with
    | Frame.Request r -> Frame.Request { r with rq_trace = Some (0xabc, 0xdef) }
    | m -> m
  in
  let traced_encoded = Frame.encode traced_req in
  let entry_bytes =
    Frame.encode_memo_entry
      {
        Service.me_attack = "L13-stack-ret";
        me_config = "stackguard";
        me_chaos_seed = None;
        me_input_hash = 0x1234;
        me_engine = "bytecode";
        me_sanitize = false;
        me_reply =
          {
            Service.r_id = "L13-stack-ret";
            r_config = "stackguard";
            r_chaos_seed = None;
            r_status = "exited 0";
            r_success = false;
            r_detail = "canary intact";
            r_attempts = 1;
            r_cached = false;
            r_violations = 0;
          };
      }
  in
  [
    Test.make ~name:"net/frame_encode_request" (stage (fun () ->
        ignore (Frame.encode req)));
    Test.make ~name:"net/frame_decode_request" (stage (fun () ->
        ignore (Frame.decode encoded)));
    Test.make ~name:"net/frame_encode_request_traced" (stage (fun () ->
        ignore (Frame.encode traced_req)));
    Test.make ~name:"net/frame_decode_request_traced" (stage (fun () ->
        ignore (Frame.decode traced_encoded)));
    Test.make ~name:"net/crc32_64B" (stage (fun () ->
        ignore (Pna_net.Crc32.string encoded)));
    Test.make ~name:"net/memo_entry_decode" (stage (fun () ->
        ignore (Frame.decode_memo_entry entry_bytes)));
  ]

(* End-to-end request latency over loopback: serve a warm (memoized)
   stream so the rows measure the wire + scheduling path, not scenario
   compute. Reported in ns to match every other row. *)
let net_loadgen_rows () =
  let module Server = Pna_net.Server in
  let module Loadgen = Pna_net.Loadgen in
  let svc = Service.create ~jobs:2 () in
  let server = Server.start svc in
  let port = Server.port server in
  let run n =
    (* one fixed seed: the spec stream is seed-derived, so the warmup
       pass fills the memo with exactly the keys the measured pass asks *)
    Loadgen.run ~conns:2 ~window:16 ~timeout_s:30. ~distinct:16
      ~host:"127.0.0.1" ~port ~n ~seed:1 ()
  in
  let (_ : Loadgen.result) = run 64 in
  let r = run 2_000 in
  Server.stop server;
  Service.shutdown svc;
  let ns us = Some (us *. 1000.) in
  [
    ("net/loadgen_p50", ns r.Loadgen.lg_p50_us);
    ("net/loadgen_p99", ns r.Loadgen.lg_p99_us);
    ("net/loadgen_p99_9", ns r.Loadgen.lg_p999_us);
    ("net/loadgen_mean", ns r.Loadgen.lg_mean_us);
  ]

(* gen: the generative catalogue's cost model — grammar drawing, genome
   codec, program synthesis and one full differential-oracle pass. The
   campaign row (appended after the group, like net's latency rows) is
   the figure that matters operationally: amortized wall-clock per
   scenario for a real campaign, which bounds how many scenarios a CI
   fuzz-smoke budget buys. *)
let gen_group () =
  let module Genome = Pna_gen.Genome in
  let module GBuild = Pna_gen.Build in
  let module GOracle = Pna_gen.Oracle in
  let module GCorpus = Pna_gen.Corpus in
  let fixed = Genome.generate (Pna_rand.Rand.create 0xbe9c4) in
  let encoded = Genome.encode fixed in
  let small_corpus =
    let rng = Pna_rand.Rand.create 0xbe9c5 in
    List.init 100 (fun _ -> Genome.generate rng)
  in
  let corpus_bytes = GCorpus.to_string small_corpus in
  [
    Test.make ~name:"gen/generate_100" (stage (
        let rng = Pna_rand.Rand.create 0x5eed in
        fun () ->
          for _ = 1 to 100 do
            ignore (Genome.generate rng)
          done));
    Test.make ~name:"gen/genome_codec_roundtrip" (stage (fun () ->
        ignore (Genome.decode (Genome.encode fixed))));
    Test.make ~name:"gen/genome_decode" (stage (fun () ->
        ignore (Genome.decode encoded)));
    Test.make ~name:"gen/build_program" (stage (fun () ->
        ignore (GBuild.program_of fixed)));
    Test.make ~name:"gen/oracle_run" (stage (fun () ->
        ignore (GOracle.run ~max_steps:20_000 fixed)));
    Test.make ~name:"gen/corpus_roundtrip_100" (stage (fun () ->
        ignore (GCorpus.of_string corpus_bytes)));
  ]

(* Amortized campaign throughput: everything a scenario costs end to end
   (generation, ~11 oracle executions, checker, coverage, filtering),
   reported as ns per scenario so it diffs like every other row. *)
let gen_campaign_rows () =
  let module Fuzz = Pna_gen.Fuzz in
  let t0 = Unix.gettimeofday () in
  let s = Fuzz.campaign ~n:200 ~seed:1 () in
  let dt = Unix.gettimeofday () -. t0 in
  [
    ( "gen/campaign_per_scenario",
      Some (dt *. 1e9 /. float_of_int s.Fuzz.f_generated) );
  ]

(* ------------------------------------------------------------------ *)
(* interp: the execution engine. A prepared scenario rewound and re-run
   on the bytecode VM — the arith loop is pure dispatch, the copy loop a
   real catalogue attack whose runtime is dominated by machine
   simulation. The compile rows price the one-off translation a prepared
   scenario amortizes away. *)

(* A benign, dispatch-bound arithmetic loop: no memory traffic to speak
   of, so its time is the engine's dispatch cost. *)
let arith_scenario ~iters =
  let body =
    Pna_minicpp.Ast.
      [
        Assign
          ( Var "acc",
            Bin
              ( Add,
                Bin
                  ( Mul,
                    Bin
                      ( Bor,
                        Bin (Add, Bin (Mul, Var "i", Int 3), Int 1),
                        Bin (Shr, Var "i", Int 2) ),
                    Int 2 ),
                Bin (Band, Var "acc", Int 7) ) );
        Assign (Var "i", Bin (Add, Var "i", Int 1));
      ]
  in
  let program =
    Pna_minicpp.Ast.(
      program
        [
          func ~ret:Pna_layout.Ctype.Int "main"
            [
              Decl ("i", Pna_layout.Ctype.Int, Some (Int 0));
              Decl ("acc", Pna_layout.Ctype.Int, Some (Int 0));
              While (Bin (Lt, Var "i", Int iters), body);
              Return (Some (Var "acc"));
            ];
        ])
  in
  Catalog.make ~id:"vm-bench-arith" ~section:"bench"
    ~name:"dispatch-bound arithmetic loop" ~segment:Catalog.Stack
    ~goal:"time the engine's dispatch on pure computation" ~program
    ~mk_input:(fun _ -> ([], []))
    ~check:(fun _ _ -> Catalog.success "loop ran")
    ()

let interp_group () =
  let arith = arith_scenario ~iters:30_000 in
  let copy = Pna_attacks.L06_copy_loop.attack in
  let arith_b = Driver.prepare ~config:Config.none arith in
  let copy_b = Driver.prepare ~config:Config.none copy in
  [
    Test.make ~name:"interp/arith30k_bytecode" (stage (fun () ->
        ignore (Driver.run_prepared ~max_steps:5_000_000 arith_b)));
    Test.make ~name:"interp/copy_loop_bytecode" (stage (fun () ->
        ignore (Driver.run_prepared ~max_steps:200_000 copy_b)));
    Test.make ~name:"interp/compile_unit" (stage (fun () ->
        ignore (Pna_minicpp.Compile.compile copy.Catalog.program)));
    Test.make ~name:"interp/compile_cached" (stage (fun () ->
        ignore (Pna_minicpp.Vm.load copy.Catalog.program)));
  ]

(* rows appended to a group's table after its Bechamel tests run *)
let extra_rows = [ ("net", net_loadgen_rows); ("gen", gen_campaign_rows) ]

(* ------------------------------------------------------------------ *)

(* Each group is a thunk, so a bench process builds the fixtures of the
   groups it runs and no others. *)
let groups =
  [
    ("micro", micro_group);
    ("vmem", vmem_group);
    ("e1", e1_group);
    ("e2e3", e2_e3_group);
    ("e4", e4_group);
    ("e5", e5_group);
    ("e6", e6_group);
    ("e7", e7_group);
    ("e8", e8_group);
    ("e9", chaos_group);
    ("syntax", syntax_group);
    ("analysis", analysis_mode_group);
    ("serial", serial_group);
    ("e11", e11_group);
    ("ablation", ablation_group);
    ("service", service_group);
    ("telemetry", telemetry_group);
    ("sanitizer", sanitizer_group);
    ("net", net_group);
    ("gen", gen_group);
    ("interp", interp_group);
  ]

let selected_groups () =
  if Array.length Sys.argv <= 1 then groups
  else
    List.map
      (fun w ->
        match List.assoc_opt w groups with
        | Some g -> (w, g)
        | None ->
          Fmt.epr "unknown bench group %S (available: %s)@." w
            (String.concat ", " (List.map fst groups));
          exit 2)
      (String.split_on_char ',' Sys.argv.(1))

let benchmark test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  Benchmark.all cfg instances test

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

(* (bench name, OLS ns/run estimate if it converged) *)
let measure test =
  let results = Analyze.all ols Instance.monotonic_clock (benchmark test) in
  Hashtbl.fold
    (fun name ols_result acc ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Some est
        | _ -> None
      in
      (name, est) :: acc)
    results []

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* machine-readable per-group results, for CI artifacts and cross-run
   comparison *)
let write_json group rows =
  let path = Fmt.str "BENCH_%s.json" group in
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Fmt.pf ppf "[@.";
  List.iteri
    (fun i (name, est) ->
      Fmt.pf ppf "  {\"name\": \"%s\", \"ns_per_run\": %s}%s@."
        (json_escape name)
        (match est with Some e -> Fmt.str "%.1f" e | None -> "null")
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Fmt.pf ppf "]@.";
  Format.pp_print_flush ppf ();
  close_out oc;
  path

let () =
  let chosen = selected_groups () in
  let total = ref 0 in
  List.iter
    (fun (gname, group) ->
      let tests = group () in
      Fmt.pr "@.== %s ==@.%-40s %16s@.%s@." gname "benchmark" "time/run"
        (String.make 58 '-');
      let rows =
        List.concat_map measure tests
        @ (match List.assoc_opt gname extra_rows with
          | Some f -> f ()
          | None -> [])
      in
      List.iter
        (fun (name, est) ->
          Fmt.pr "%-40s %16s@." name
            (match est with
            | Some e -> Fmt.str "%12.1f ns" e
            | None -> "(no estimate)"))
        rows;
      let path = write_json gname rows in
      Fmt.pr "-> %s@." path;
      total := !total + List.length rows)
    chosen;
  Fmt.pr "@.bench: done (%d benchmarks in %d groups)@." !total
    (List.length chosen)
