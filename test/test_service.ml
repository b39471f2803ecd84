(** The scenario service and the snapshot substrate under it: QCheck
    properties for Vmem snapshot/restore, machine-rewind determinism, the
    domain pool, the memo cache and the batch/sequential equivalence the
    whole layer is built on. *)

module Vmem = Pna_vmem.Vmem
module Segment = Pna_vmem.Segment
module Perm = Pna_vmem.Perm
module Machine = Pna_machine.Machine
module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Outcome = Pna_minicpp.Outcome
module Plan = Pna_chaos.Plan
module Pool = Pna_service.Pool
module Service = Pna_service.Service

(* ------------------------------------------------------------------ *)
(* Vmem snapshot/restore                                               *)

let data_base = 0x1000
let data_size = 0x200
let heap_base = 0x4000
let heap_size = 0x100

let mk_vmem () =
  let m = Vmem.create () in
  ignore (Vmem.map m ~kind:Segment.Data ~base:data_base ~size:data_size ~perm:Perm.rw);
  ignore (Vmem.map m ~kind:Segment.Heap ~base:heap_base ~size:heap_size ~perm:Perm.rw);
  m

(* Observable state of the whole space: bytes, taint, trace, segments. *)
let observe m =
  let seg_bytes (s : Segment.t) =
    List.init s.Segment.size (fun i ->
        (s.Segment.base + i, Vmem.read_u8 m (s.Segment.base + i),
         Vmem.taint_of m (s.Segment.base + i)))
  in
  let segs = Vmem.segments m in
  ( List.map (fun (s : Segment.t) -> (s.Segment.kind, s.Segment.base, s.Segment.size)) segs,
    List.concat_map seg_bytes segs,
    Vmem.trace m )

(* An arbitrary mutation step against the space. *)
type mutation =
  | Write of int * int * bool
  | Fill of int * int * int
  | Blit of int * int * int
  | Taint of int * int * bool

let apply_mutation m = function
  | Write (addr, v, taint) -> Vmem.write_u8 ~taint m addr v
  | Fill (dst, len, v) -> Vmem.fill m ~dst ~len v
  | Blit (src, dst, len) -> Vmem.blit m ~src ~dst ~len
  | Taint (addr, len, on) -> Vmem.set_taint m addr len on

let mutation_gen =
  let open QCheck.Gen in
  let addr_in base size margin =
    map (fun off -> base + off) (int_bound (size - 1 - margin))
  in
  let any_addr margin =
    oneof [ addr_in data_base data_size margin; addr_in heap_base heap_size margin ]
  in
  oneof
    [
      map3 (fun a v t -> Write (a, v, t)) (any_addr 0) (int_bound 255) bool;
      map3 (fun a len v -> Fill (a, len, v)) (addr_in data_base data_size 32)
        (int_bound 31) (int_bound 255);
      map3 (fun src dst len -> Blit (src, dst, len))
        (addr_in data_base data_size 16) (addr_in heap_base heap_size 16)
        (int_bound 15);
      map3 (fun a len on -> Taint (a, len, on)) (addr_in heap_base heap_size 8)
        (int_bound 8) bool;
    ]

let mutation_print = function
  | Write (a, v, t) -> Printf.sprintf "write u8 0x%x <- %d taint:%b" a v t
  | Fill (a, l, v) -> Printf.sprintf "fill 0x%x+%d <- %d" a l v
  | Blit (s, d, l) -> Printf.sprintf "blit 0x%x -> 0x%x len %d" s d l
  | Taint (a, l, on) -> Printf.sprintf "taint 0x%x+%d <- %b" a l on

(* snapshot -> arbitrary writes -> restore is the identity on the whole
   observable space: contents, taint, write records, segment list. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:100 ~name:"snapshot/restore is the identity"
    QCheck.(
      make ~print:(fun l -> String.concat "; " (List.map mutation_print l))
        (Gen.list_size (Gen.int_range 0 40) mutation_gen))
    (fun mutations ->
      let m = mk_vmem () in
      Vmem.enable_trace m;
      (* a non-trivial pre-state, including pre-existing trace records *)
      Vmem.write_string ~taint:true m (data_base + 8) "pre-state";
      Vmem.fill m ~dst:heap_base ~len:16 0xab;
      let before = observe m in
      let snap = Vmem.snapshot m in
      List.iter (apply_mutation m) mutations;
      (* also map a segment after the snapshot: restore must unmap it *)
      ignore (Vmem.map m ~kind:Segment.Mmap ~base:0x9000 ~size:0x40 ~perm:Perm.rw);
      Vmem.restore m snap;
      observe m = before)

let test_snapshot_restores_trace_state () =
  let m = mk_vmem () in
  (* trace disabled at snapshot time; enabled + populated afterwards *)
  let snap = Vmem.snapshot m in
  Vmem.enable_trace m;
  Vmem.write_u8 ~tag:"post" m data_base 1;
  Alcotest.(check int) "trace recorded" 1 (List.length (Vmem.trace m));
  Vmem.restore m snap;
  Alcotest.(check int) "trace rewound" 0 (List.length (Vmem.trace m));
  Vmem.write_u8 ~tag:"post2" m data_base 2;
  Alcotest.(check int) "tracing disabled again" 0 (List.length (Vmem.trace m))

let test_snapshot_restores_perms () =
  let m = mk_vmem () in
  let snap = Vmem.snapshot m in
  let seg = Option.get (Vmem.find_segment m data_base) in
  seg.Segment.perm <- Perm.ro;
  (match Vmem.write_u8 m data_base 1 with
  | () -> Alcotest.fail "write through ro segment should fault"
  | exception Pna_vmem.Fault.Fault _ -> ());
  Vmem.restore m snap;
  Vmem.write_u8 m data_base 1;
  Alcotest.(check int) "writable again" 1 (Vmem.read_u8 m data_base)

(* ------------------------------------------------------------------ *)
(* Prepared machines: rewind == rebuild                                *)

let result_fingerprint (r : Driver.result) =
  ( r.Driver.attack.Catalog.id,
    r.Driver.config.Config.name,
    Fmt.str "%a" Outcome.pp_status r.Driver.outcome.Outcome.status,
    r.Driver.verdict.Catalog.success,
    r.Driver.verdict.Catalog.detail,
    List.map Pna_machine.Event.to_string r.Driver.outcome.Outcome.events,
    r.Driver.outcome.Outcome.output,
    r.Driver.outcome.Outcome.steps )

(* Every catalogue attack, under a defended and an undefended config:
   running a prepared scenario twice gives exactly the fresh-load result
   each time — the machine rewind is perfect. The budget caps the
   deliberately-slow DoS/OOM entries; both sides run under the same cap,
   so the comparison stays exact. *)
let budget = 60_000

let test_prepared_equals_fresh () =
  List.iter
    (fun config ->
      List.iter
        (fun (a : Catalog.t) ->
          let fresh =
            result_fingerprint (Driver.run ~config ~max_steps:budget a)
          in
          let p = Driver.prepare ~config a in
          for i = 1 to 2 do
            let again =
              result_fingerprint (Driver.run_prepared ~max_steps:budget p)
            in
            if again <> fresh then
              Alcotest.failf "%s under %s: rewound run %d diverged"
                a.Catalog.id config.Config.name i
          done)
        All.attacks)
    [ Config.none; Config.full ]

let test_supervised_reload_equals_fresh () =
  let a = Pna_attacks.L13_stack_ret.attack in
  let config = Config.stackguard in
  List.iter
    (fun seed ->
      let plan = Plan.generate ~seed () in
      let fresh = Driver.supervise ~config ~plan a in
      let p = Driver.prepare ~config a in
      let rewound =
        Driver.supervise ~config ~reload:(fun () -> Driver.reset p) ~plan a
      in
      Alcotest.(check string)
        (Fmt.str "seed %d supervised equal" seed)
        (Fmt.str "%a" Driver.pp_supervised fresh)
        (Fmt.str "%a" Driver.pp_supervised rewound))
    [ 1; 2; 3; 4; 5 ]

let test_run_max_steps_deadline () =
  (* the benign pool server cannot finish 64 requests in 50 steps: the
     new ?max_steps on Driver.run must surface the timeout *)
  let r = Driver.run ~max_steps:50 Pna.Experiments.benign_pool in
  match r.Driver.outcome.Outcome.status with
  | Outcome.Timeout _ -> ()
  | st ->
    Alcotest.failf "expected timeout under 50-step deadline, got %a"
      Outcome.pp_status st

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_runs_all_jobs () =
  let pool = Pool.create ~jobs:4 ~queue_cap:2 ~mk_ctx:(fun () -> ()) () in
  let futures = List.init 50 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let results = List.map Pool.await futures in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "all squares, in order"
    (List.init 50 (fun i -> i * i))
    results

let test_pool_propagates_exceptions () =
  let pool = Pool.create ~jobs:2 ~mk_ctx:(fun () -> ()) () in
  let ok = Pool.submit pool (fun () -> 7) in
  let bad = Pool.submit pool (fun () -> failwith "job exploded") in
  Alcotest.(check int) "good job" 7 (Pool.await ok);
  (match Pool.await bad with
  | _ -> Alcotest.fail "expected the job's exception"
  | exception Failure msg -> Alcotest.(check string) "message" "job exploded" msg);
  Pool.shutdown pool

let test_pool_clamp () =
  Alcotest.(check int) "floor" 1 (Pool.clamp_jobs (-3));
  let top = Pool.clamp_jobs max_int in
  Alcotest.(check bool) "ceiling >= 4 and respected" true
    (top >= 4 && Pool.clamp_jobs (top + 1) = top)

let test_pool_rejects_after_shutdown () =
  let pool = Pool.create ~jobs:1 ~mk_ctx:(fun () -> ()) () in
  Pool.shutdown pool;
  match Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* Poll [cond] for up to [secs]: a lost wake-up leaves a domain parked
   for ever, and the watchdog turns that into a failed check instead of
   a hung suite. *)
let wait_until ?(secs = 20.) cond =
  let deadline = Unix.gettimeofday () +. secs in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  cond ()

(* With a one-slot queue, 8 submitters spend most of their time parked
   on [not_full]: every take must wake one, and [shutdown] must wake
   them all. *)
let test_pool_parked_submitters () =
  let pool = Pool.create ~jobs:4 ~queue_cap:1 ~mk_ctx:(fun () -> ()) () in
  (* a stuck pool is released on the failure path so no domain outlives
     the test *)
  let abandon msg =
    ignore (Domain.spawn (fun () -> Pool.shutdown pool));
    Alcotest.fail msg
  in
  let runs = Array.init (8 * 50) (fun _ -> Atomic.make 0) in
  let finished = Atomic.make 0 in
  let submitters =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            List.init 50 (fun k ->
                Pool.submit pool (fun () -> Atomic.incr runs.((d * 50) + k)))
            |> List.iter Pool.await;
            Atomic.incr finished))
  in
  if not (wait_until (fun () -> Atomic.get finished = 8)) then
    abandon "parked submitters never woke: lost wake-up";
  List.iter Domain.join submitters;
  Alcotest.(check bool) "every job ran exactly once" true
    (Array.for_all (fun r -> Atomic.get r = 1) runs);
  (* hold all 4 workers and fill the slot, so the next submitters park *)
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let held =
    List.init 4 (fun _ ->
        Pool.submit pool (fun () ->
            Atomic.incr started;
            while not (Atomic.get gate) do
              Unix.sleepf 0.001
            done))
  in
  if not (wait_until (fun () -> Atomic.get started = 4)) then begin
    Atomic.set gate true;
    abandon "workers never took the held jobs"
  end;
  let queued = Pool.submit pool (fun () -> ()) in
  let entered = Atomic.make 0 and rejected = Atomic.make 0 in
  let parked =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr entered;
            match Pool.submit pool (fun () -> ()) with
            | _ -> ()
            | exception Invalid_argument _ -> Atomic.incr rejected))
  in
  ignore (wait_until (fun () -> Atomic.get entered = 8));
  Unix.sleepf 0.05;
  let closed = Atomic.make false in
  let closer =
    Domain.spawn (fun () ->
        Pool.shutdown pool;
        Atomic.set closed true)
  in
  let all_rejected = wait_until (fun () -> Atomic.get rejected = 8) in
  Atomic.set gate true;
  if not all_rejected then
    Alcotest.fail "shutdown left parked submitters asleep";
  if not (wait_until (fun () -> Atomic.get closed)) then
    Alcotest.fail "shutdown never joined the workers";
  Domain.join closer;
  List.iter Domain.join parked;
  List.iter Pool.await held;
  Alcotest.(check bool) "the queued job drained before shutdown returned"
    true
    (Pool.peek queued = Some (Ok ()))

(* ------------------------------------------------------------------ *)
(* Service                                                             *)

let reply_fingerprint (r : Service.reply) =
  (r.Service.r_id, r.Service.r_config, r.Service.r_chaos_seed,
   r.Service.r_status, r.Service.r_success, r.Service.r_detail,
   r.Service.r_attempts)

(* The acceptance property: a 4-way parallel batch over the whole attack
   x defense matrix is verdict-identical to the sequential driver. *)
let test_batch_matches_sequential_driver () =
  (* whole catalogue, a defended and an undefended config; the remaining
     configs are covered by the sequential experiments *)
  let jobs =
    Service.matrix_jobs ~configs:[ Config.none; Config.full ] ~max_steps:budget
      ()
  in
  let sequential =
    List.map (fun j -> reply_fingerprint (Service.reference j)) jobs
  in
  let svc = Service.create ~jobs:4 () in
  let parallel = List.map reply_fingerprint (Service.run_batch svc jobs) in
  Service.shutdown svc;
  Alcotest.(check int) "one reply per job" (List.length jobs)
    (List.length parallel);
  List.iteri
    (fun i (seq, par) ->
      if seq <> par then
        let id, config, _, _, _, _, _ = seq in
        Alcotest.failf "job %d (%s under %s): parallel reply diverged" i id
          config)
    (List.combine sequential parallel)

let test_batch_chaos_matches_supervise () =
  let a = Pna_attacks.L12_heap.attack in
  let config = Config.none in
  let jobs =
    List.map (fun seed -> Service.job ~chaos_seed:seed ~config a) [ 11; 12; 13 ]
  in
  let sequential =
    List.map (fun j -> reply_fingerprint (Service.reference j)) jobs
  in
  let svc = Service.create ~jobs:2 () in
  let parallel = List.map reply_fingerprint (Service.run_batch svc jobs) in
  Service.shutdown svc;
  Alcotest.(check bool) "supervised replies equal" true (sequential = parallel)

let test_memo_hits_repeated_jobs () =
  (* one worker, so the per-worker prepared cache is observed exactly *)
  let svc = Service.create ~jobs:1 () in
  let j = Service.job ~config:Config.none Pna_attacks.L13_stack_ret.attack in
  let first = Service.exec svc j in
  let repeats = Service.run_batch svc [ j; j; j; j ] in
  let st = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check bool) "first reply computed" false first.Service.r_cached;
  List.iter
    (fun (r : Service.reply) ->
      Alcotest.(check bool) "repeat served from memo" true r.Service.r_cached;
      Alcotest.(check bool) "verdict preserved" true
        (reply_fingerprint r = reply_fingerprint first))
    repeats;
  Alcotest.(check int) "4 memo hits" 4 st.Service.st_memo_hits;
  Alcotest.(check int) "1 memo miss" 1 st.Service.st_memo_misses;
  Alcotest.(check int) "one image load, many rewinds" 1 st.Service.st_fresh_loads;
  (* exactly one counted rewind, for the single real execution: the
     input hash is computed once at load time, so memo hits do no
     machine work at all *)
  Alcotest.(check int) "hits never touch the machine" 1
    st.Service.st_snapshot_restores

(* The memo cache is bounded: 24 distinct keys over a cap of 16 must
   evict. An unbounded cache would make multi-day soaks an OOM, so this
   pins the bound. *)
let test_memo_lru_evicts_at_cap () =
  let svc = Service.create ~jobs:1 ~memo_cap:16 () in
  let job seed =
    Service.job ~chaos_seed:seed ~max_steps:60_000 ~config:Config.none
      Pna_attacks.L13_stack_ret.attack
  in
  let seeds = List.init 24 (fun i -> i + 1) in
  let (_ : Service.reply list) =
    Service.run_batch svc (List.map job seeds)
  in
  let st = Service.stats svc in
  let evicted = st.Service.st_memo_evictions in
  let exported =
    Pna_telemetry.Metrics.(
      count (counter (Service.registry svc) "pna_memo_evictions_total"))
  in
  (* the survivors still serve from memo, evicted keys recompute — and
     both still answer with the same verdict. Newest first: replaying the
     same order would evict each survivor just before its turn. *)
  let again = Service.run_batch svc (List.map job (List.rev seeds)) in
  let st2 = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check bool) "cap forces evictions" true (evicted > 0);
  Alcotest.(check int) "registry exports the eviction count" evicted exported;
  Alcotest.(check bool) "some repeats still hit the memo" true
    (st2.Service.st_memo_hits > st.Service.st_memo_hits);
  Alcotest.(check bool) "evicted keys recompute, not fail" true
    (List.for_all (fun (r : Service.reply) -> r.Service.r_status <> "") again)

(* [memo_cap] is the exact entry bound: 24 distinct keys over cap 16
   evict exactly the 8 oldest, and the 16 newest all serve from memo. *)
let test_memo_exact_cap () =
  let svc = Service.create ~jobs:1 ~memo_cap:16 () in
  let job seed =
    Service.job ~chaos_seed:seed ~max_steps:60_000 ~config:Config.none
      Pna_attacks.L13_stack_ret.attack
  in
  let seeds = List.init 24 (fun i -> i + 1) in
  let (_ : Service.reply list) = Service.run_batch svc (List.map job seeds) in
  let st = Service.stats svc in
  let newest = List.filter (fun s -> s > 8) seeds in
  let again = Service.run_batch svc (List.map job newest) in
  let st2 = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check int) "24 keys over cap 16 evict exactly 8" 8
    st.Service.st_memo_evictions;
  Alcotest.(check bool) "the 16 newest keys all hit" true
    (List.for_all (fun (r : Service.reply) -> r.Service.r_cached) again);
  Alcotest.(check int) "hits evict nothing" 8 st2.Service.st_memo_evictions

let test_try_submit_and_notify () =
  let svc = Service.create ~jobs:1 () in
  let notified = Atomic.make 0 in
  let j = Service.job ~config:Config.none Pna_attacks.L13_stack_ret.attack in
  (match
     Service.try_submit ~notify:(fun () -> Atomic.incr notified) svc j
   with
  | None -> Alcotest.fail "try_submit rejected an idle service"
  | Some fut ->
    let r = Pool.await fut in
    Alcotest.(check bool) "reply delivered" true (String.length r.Service.r_id > 0));
  (* notify runs on the worker right after the future is fulfilled, so
     await can return first — give the worker a moment *)
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get notified = 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "notify ran once" 1 (Atomic.get notified);
  Service.shutdown svc;
  Alcotest.(check bool) "try_submit after shutdown is None" true
    (Service.try_submit svc j = None)

let test_memo_off_recomputes () =
  let svc = Service.create ~jobs:1 ~memo:false () in
  let j = Service.job ~config:Config.none Pna_attacks.L11_data_bss.attack in
  let a = Service.exec svc j in
  let b = Service.exec svc j in
  let st = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check bool) "nothing cached" true
    ((not a.Service.r_cached) && not b.Service.r_cached);
  Alcotest.(check int) "no hits" 0 st.Service.st_memo_hits;
  Alcotest.(check int) "still one load: snapshot reuse is independent" 1
    st.Service.st_fresh_loads

let test_synth_stream_deterministic () =
  let spec (js : Service.job list) =
    List.map
      (fun (j : Service.job) ->
        (j.Service.j_attack.Catalog.id, j.Service.j_config.Config.name,
         j.Service.j_chaos_seed))
      js
  in
  let a = Service.synth_stream ~seed:42 ~n:30 () in
  let b = Service.synth_stream ~seed:42 ~n:30 () in
  let c = Service.synth_stream ~seed:43 ~n:30 () in
  Alcotest.(check bool) "same seed, same stream" true (spec a = spec b);
  Alcotest.(check bool) "different seed, different stream" true (spec a <> spec c);
  Alcotest.(check bool) "stream mixes chaos jobs in" true
    (List.exists (fun (j : Service.job) -> j.Service.j_chaos_seed <> None) a)

let test_service_deadline () =
  let svc = Service.create ~jobs:1 () in
  let r =
    Service.exec svc (Service.job ~max_steps:50 Pna.Experiments.benign_pool)
  in
  Service.shutdown svc;
  Alcotest.(check bool) "deadline surfaced as timeout" true
    (String.length r.Service.r_status >= 7
    && String.sub r.Service.r_status 0 7 = "TIMEOUT")

(* The queue-wait histogram is sampled on the monotonic clock: one
   observation per executed job and never a negative wait. The old
   wall-clock sampling could go backwards under NTP steps and record
   negative waits; this pins the fix. One worker so the duplicate jobs
   are deterministically memo hits: with two workers, both copies of a
   distinct job can race past the memo store and execute twice. *)
let test_queue_wait_monotonic () =
  let svc = Service.create ~jobs:1 () in
  let js =
    List.map
      (fun (a : Catalog.t) -> Service.job ~config:Config.none a)
      [ Pna_attacks.L13_stack_ret.attack; Pna_attacks.L11_data_bss.attack ]
  in
  let (_ : Service.reply list) = Service.run_batch svc (js @ js @ js) in
  let st = Service.stats svc in
  Service.shutdown svc;
  let waits, wait_total = st.Service.st_queue_wait_us in
  let execs, exec_total = st.Service.st_execute_us in
  Alcotest.(check int) "one wait sample per job" 6 waits;
  Alcotest.(check bool) "waits never negative" true (wait_total >= 0.);
  (* memo hits skip execution: 2 misses (one per distinct job), 4 hits *)
  Alcotest.(check int) "one execute sample per miss" 2 execs;
  Alcotest.(check bool) "execute times positive" true (exec_total > 0.)

let test_clock_monotonic_across_domains () =
  let module Clock = Pna_telemetry.Clock in
  let a = Clock.now_ns () in
  let b = Domain.join (Domain.spawn (fun () -> Clock.now_ns ())) in
  let c = Clock.now_ns () in
  Alcotest.(check bool) "ordered across a domain spawn" true
    (Int64.compare a b <= 0 && Int64.compare b c <= 0);
  Alcotest.(check bool) "elapsed_us of an ordered pair >= 0" true
    (Clock.elapsed_us ~a ~b:c >= 0.)

(* Four workers count into one registry: an export sees every job, and
   exporting has no side effect, so a second dump equals the first. *)
let test_sharded_registry_stable () =
  let svc = Service.create ~jobs:4 () in
  let js = Service.matrix_jobs ~configs:[ Config.none ] ~max_steps:60_000 () in
  let (_ : Service.reply list) = Service.run_batch svc js in
  let dump () = Fmt.str "%a" Service.pp_prometheus svc in
  let first = dump () in
  let again = dump () in
  let st = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check string) "repeated export identical (exports only read)"
    first again;
  Alcotest.(check int) "stats see every job" (List.length js) st.Service.st_jobs;
  let has fragment =
    let nh = String.length first and nn = String.length fragment in
    let rec go i = i + nn <= nh && (String.sub first i nn = fragment || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "jobs counter exported" true
    (has (Fmt.str "pna_service_jobs_total %d" (List.length js)));
  Alcotest.(check bool) "queue-wait histogram exported" true
    (has (Fmt.str "pna_service_queue_wait_us_count %d" (List.length js)))

(* Two workers count straight into one registry while a cap-16 memo
   evicts under them: once the batch is answered, the stats agree with
   each other and with the export. Outcomes are counted by status key —
   never by a rendered status's first word ("exited(0)", "***"). *)
let test_stats_agree_under_concurrency () =
  let svc = Service.create ~jobs:2 ~memo_cap:16 () in
  let attacks =
    [ Pna_attacks.L13_stack_ret.attack; Pna_attacks.L11_data_bss.attack ]
  in
  let configs = Config.[ none; stackguard; full ] in
  let plain =
    List.concat_map
      (fun a ->
        List.map (fun config -> Service.job ~max_steps:60_000 ~config a) configs)
      attacks
  in
  let chaos =
    List.init 12 (fun i ->
        Service.job ~chaos_seed:(i + 1) ~max_steps:60_000 ~config:Config.none
          Pna_attacks.L13_stack_ret.attack)
  in
  let js = plain @ chaos in
  let (_ : Service.reply list) = Service.run_batch svc (js @ js @ js) in
  let st = Service.stats svc in
  let dump = Fmt.str "%a" Service.pp_prometheus svc in
  Service.shutdown svc;
  let outcomes = List.fold_left (fun a (_, n) -> a + n) 0 st.Service.st_outcomes in
  Alcotest.(check int) "every job counted" (3 * List.length js) st.Service.st_jobs;
  Alcotest.(check int) "jobs = hits + misses" st.Service.st_jobs
    (st.Service.st_memo_hits + st.Service.st_memo_misses);
  Alcotest.(check int) "jobs = sum of outcomes" st.Service.st_jobs outcomes;
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) (k ^ " is a status key") true
        (List.mem k Pna_minicpp.Outcome.status_keys))
    st.Service.st_outcomes;
  Alcotest.(check bool) "the cap evicted" true (st.Service.st_memo_evictions > 0);
  Alcotest.(check bool) "export carries the eviction count" true
    (List.mem
       (Fmt.str "pna_memo_evictions_total %d" st.Service.st_memo_evictions)
       (String.split_on_char '\n' dump))

(* The shared frozen-image store: with memo off, every worker that
   touches a scenario needs its own prepared replica, but only cold
   misses pay Interp.load — later workers thaw the published image.
   Which workers execute is the scheduler's business, so the invariant
   is structural: every worker's first encounter counts exactly one of
   (fresh load | replica thaw), so loads + thaws is at most the worker
   count, at least one load published the image, and all replies are
   identical. *)
let test_replica_store_bounds_loads () =
  let svc = Service.create ~jobs:4 ~memo:false () in
  let j = Service.job ~config:Config.none ~max_steps:60_000
      Pna_attacks.L13_stack_ret.attack in
  let replies = Service.run_batch svc (List.init 64 (fun _ -> j)) in
  let st = Service.stats svc in
  let workers = Service.jobs svc in
  Service.shutdown svc;
  Alcotest.(check int) "all jobs answered" 64 (List.length replies);
  Alcotest.(check bool) "one fingerprint" true
    (match List.map reply_fingerprint replies with
    | [] -> false
    | f :: rest -> List.for_all (( = ) f) rest);
  Alcotest.(check bool) "at least one cold load" true
    (st.Service.st_fresh_loads >= 1);
  Alcotest.(check bool) "first encounters bounded by workers" true
    (st.Service.st_fresh_loads + st.Service.st_replica_clones <= workers);
  (* every executed job beyond each worker's first is a local rewind *)
  Alcotest.(check int) "every job executed (memo off)" 64 st.Service.st_jobs

(* ------------------------------------------------------------------ *)
(* Memo soundness and the memo-first hit path                          *)

let served_fingerprint (r : Service.reply) =
  (reply_fingerprint r, r.Service.r_violations)

(* The memo key covers the deadline: a timeout cached under a 10-step
   deadline is not served to a 200 000-step request for the same attack
   (which finishes), nor the other way round. *)
let test_memo_key_covers_deadline () =
  let a = Pna_attacks.L13_stack_ret.attack in
  let job max_steps =
    Service.job ~max_steps ~sanitize:false ~config:Config.none a
  in
  let tight = job 10 and generous = job 200_000 in
  let expect_tight = Service.reference tight
  and expect_generous = Service.reference generous in
  Alcotest.(check bool) "the two deadlines disagree when run fresh" true
    (reply_fingerprint expect_tight <> reply_fingerprint expect_generous);
  let svc = Service.create ~jobs:1 () in
  let replies = List.map (Service.exec svc) [ tight; generous; tight; generous ] in
  Service.shutdown svc;
  List.iteri
    (fun i (r, expect) ->
      Alcotest.(check (pair string string))
        (Fmt.str "reply %d equals a fresh Driver.run" i)
        (expect.Service.r_status, expect.Service.r_detail)
        (r.Service.r_status, r.Service.r_detail))
    (List.combine replies [ expect_tight; expect_generous; expect_tight; expect_generous ]);
  Alcotest.(check (list bool)) "repeats are memo hits"
    [ false; false; true; true ]
    (List.map (fun (r : Service.reply) -> r.Service.r_cached) replies)

(* [None] is the driver's default budget, so it shares an entry with
   [Some Driver.default_budget]; another deadline does not. *)
let test_request_digest_deadline () =
  let input = Service.input_digest ([ 1; 2 ], [ "ab" ]) in
  let d = Service.request_digest ~input in
  Alcotest.(check int) "None = Some default budget"
    (d ~max_steps:None) (d ~max_steps:(Some Driver.default_budget));
  Alcotest.(check bool) "another deadline, another key" true
    (d ~max_steps:None <> d ~max_steps:(Some 60_000));
  (* every value of the input is digested, in order *)
  Alcotest.(check bool) "input order matters" true
    (input <> Service.input_digest ([ 2; 1 ], [ "ab" ]));
  Alcotest.(check bool) "string boundaries matter" true
    (Service.input_digest ([], [ "a"; "b" ])
    <> Service.input_digest ([], [ "ab" ]))

(* A memo hit on a key that has left the worker's prepared cache is
   served from the digest published with the image: no replica is
   thawed, nothing is loaded or rewound. *)
let test_memo_hit_without_replica () =
  let svc = Service.create ~jobs:1 ~prepared_cap:1 () in
  let jobs =
    List.map
      (fun a -> Service.job ~max_steps:60_000 ~sanitize:false ~config:Config.none a)
      [ Pna_attacks.L13_stack_ret.attack; Pna_attacks.L11_data_bss.attack;
        Pna_attacks.L12_heap.attack ]
  in
  let warm = List.map (Service.exec svc) jobs in
  let before = Service.stats svc in
  let hits = List.map (Service.exec svc) jobs in
  let after = Service.stats svc in
  Service.shutdown svc;
  List.iter2
    (fun (w : Service.reply) (h : Service.reply) ->
      Alcotest.(check bool) "served from the memo" true h.Service.r_cached;
      Alcotest.(check bool) "same reply" true
        (served_fingerprint w = served_fingerprint h))
    warm hits;
  Alcotest.(check int) "three hits" 3
    (after.Service.st_memo_hits - before.Service.st_memo_hits);
  Alcotest.(check int) "no replica thawed" before.Service.st_replica_clones
    after.Service.st_replica_clones;
  Alcotest.(check int) "nothing loaded" before.Service.st_fresh_loads
    after.Service.st_fresh_loads;
  Alcotest.(check int) "nothing rewound" before.Service.st_snapshot_restores
    after.Service.st_snapshot_restores

(* With no preloaded log, a machine is only ever built for a request
   that then executes: loads + thaws never exceed memo misses. *)
let test_images_bounded_by_misses () =
  let svc = Service.create ~jobs:1 ~prepared_cap:2 () in
  let attacks =
    [ Pna_attacks.L13_stack_ret.attack; Pna_attacks.L11_data_bss.attack;
      Pna_attacks.L12_heap.attack ]
  in
  let stream =
    List.concat_map
      (fun max_steps ->
        List.concat_map
          (fun a ->
            [ Service.job ~max_steps ~sanitize:false ~config:Config.none a;
              Service.job ~max_steps ~sanitize:false ~chaos_seed:3
                ~config:Config.none a ])
          attacks)
      [ 60_000; 10; 60_000; 10 ]
  in
  let (_ : Service.reply list) = Service.run_batch svc stream in
  let st = Service.stats svc in
  Service.shutdown svc;
  Alcotest.(check bool) "some hits, some misses" true
    (st.Service.st_memo_hits > 0 && st.Service.st_memo_misses > 0);
  Alcotest.(check bool) "loads + thaws <= misses" true
    (st.Service.st_fresh_loads + st.Service.st_replica_clones
    <= st.Service.st_memo_misses)

(* Random request streams through a memo-on service whose prepared
   cache holds two images: every reply, cached or not, equals a fresh
   run of exactly that request. Streams draw from a small per-stream
   palette of scenarios so keys repeat under both deadlines. *)
let prop_memo_replies_equal_fresh =
  let attacks = Array.of_list All.attacks in
  let configs = [| Config.none; Config.stackguard; Config.full |] in
  let stream_gen =
    let open QCheck.Gen in
    list_size (int_range 2 3) (int_bound (Array.length attacks - 1))
    >>= fun palette ->
    list_size (int_range 4 10)
      (map
         (fun ((a, c, sanitize), (chaos, deadline)) ->
           (a, c, sanitize, chaos, deadline))
         (pair
            (triple (oneofl palette) (int_bound (Array.length configs - 1)) bool)
            (pair (opt ~ratio:0.3 (int_range 1 3)) (oneofl [ 10; 60_000 ]))))
  in
  let print (a, c, sanitize, chaos, deadline) =
    Fmt.str "%s/%s%s%s@%d" attacks.(a).Catalog.id configs.(c).Config.name
      (if sanitize then "/san" else "")
      (match chaos with None -> "" | Some s -> Fmt.str "/chaos=%d" s)
      deadline
  in
  QCheck.Test.make ~count:12 ~name:"memo replies equal a fresh run"
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map print l)) stream_gen)
    (fun reqs ->
      let jobs =
        List.map
          (fun (a, c, sanitize, chaos_seed, max_steps) ->
            Service.job ?chaos_seed ~max_steps ~sanitize ~config:configs.(c)
              attacks.(a))
          reqs
      in
      let svc = Service.create ~jobs:1 ~prepared_cap:2 () in
      let served = Service.run_batch svc jobs in
      Service.shutdown svc;
      List.for_all2
        (fun j r -> served_fingerprint r = served_fingerprint (Service.reference j))
        jobs served)

(* ------------------------------------------------------------------ *)

(* A frozen image keeps only the pages that are not one byte repeated:
   benign_pool's post-load snapshot, plain and with the oracle attached,
   holds a few hundred words where full copies of its layers would hold
   about 172k (259k sanitized). Counted, not timed. *)
let test_snapshot_memory_bound () =
  let snapshot_words ~sanitize =
    let m =
      Pna_minicpp.Interp.load ~config:Config.none
        Pna.Experiments.benign_pool.Catalog.program
    in
    if sanitize then
      Machine.attach_sanitizer m
        (Some (Pna_sanitizer.Sanitizer.attach (Machine.mem m)));
    Obj.reachable_words (Obj.repr (Machine.snapshot m))
  in
  List.iter
    (fun sanitize ->
      let words = snapshot_words ~sanitize in
      if words > 8192 then
        Alcotest.failf "post-load snapshot (sanitize %b) holds %d words, over 8192"
          sanitize words)
    [ false; true ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "service",
    [
      QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
      t "snapshot rewinds write-trace state" test_snapshot_restores_trace_state;
      t "snapshot rewinds permissions" test_snapshot_restores_perms;
      t "prepared rewind == fresh load (whole catalogue)" test_prepared_equals_fresh;
      t "supervised reload == fresh supervise" test_supervised_reload_equals_fresh;
      t "Driver.run enforces ?max_steps" test_run_max_steps_deadline;
      t "pool: 50 jobs through cap-2 queue" test_pool_runs_all_jobs;
      t "pool: job exceptions reach await" test_pool_propagates_exceptions;
      t "pool: jobs clamp" test_pool_clamp;
      t "pool: submit after shutdown rejected" test_pool_rejects_after_shutdown;
      t "batch --jobs 4 == sequential driver (full matrix)"
        test_batch_matches_sequential_driver;
      t "pool: parked submitters wake on take and on shutdown"
        test_pool_parked_submitters;
      t "chaos jobs through the pool == direct supervise"
        test_batch_chaos_matches_supervise;
      t "memo cache serves repeats without executing" test_memo_hits_repeated_jobs;
      t "memo LRU evicts at the cap, keeps serving" test_memo_lru_evicts_at_cap;
      t "memo cap is exact: 24 keys over 16 evict 8" test_memo_exact_cap;
      t "try_submit admits, notifies, rejects after shutdown"
        test_try_submit_and_notify;
      t "memo off still reuses snapshots" test_memo_off_recomputes;
      t "synthetic stream is seed-deterministic" test_synth_stream_deterministic;
      t "per-job deadline enforced through the service" test_service_deadline;
      t "queue-wait sampled monotonically, one per job" test_queue_wait_monotonic;
      t "monotonic clock ordered across domains" test_clock_monotonic_across_domains;
      t "sharded registry: stable, complete exports" test_sharded_registry_stable;
      t "stats agree with each other and the export (2 workers)"
        test_stats_agree_under_concurrency;
      t "replica store: cold loads bounded by workers"
        test_replica_store_bounds_loads;
      t "memo key covers the deadline (10 then 200 000 steps)"
        test_memo_key_covers_deadline;
      t "request digest: deadline and full input" test_request_digest_deadline;
      t "memo hit on an evicted key builds no replica"
        test_memo_hit_without_replica;
      t "loads + thaws <= memo misses" test_images_bounded_by_misses;
      QCheck_alcotest.to_alcotest prop_memo_replies_equal_fresh;
      t "post-load snapshot holds only non-uniform pages"
        test_snapshot_memory_bound;
    ] )
