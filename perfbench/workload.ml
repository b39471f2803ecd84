(* The workloads: seeded inputs, untimed set-up, the timed closed loop,
   and the correctness check of every reply against an in-process
   reference. *)

module R = Pna_rand.Rand
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Driver = Pna_attacks.Driver
module Config = Pna_defense.Config
module Service = Pna_service.Service
module Frame = Pna_net.Frame
module Loadgen = Pna_net.Loadgen
module Plan = Pna_chaos.Plan
module Genome = Pna_gen.Genome
module Build = Pna_gen.Build
module Corpus = Pna_gen.Corpus

type ctx = {
  pna : string;  (** the `pna` CLI the wire workloads serve from *)
  tmp : string;  (** per-run scratch directory inside the checkout *)
  seed : int;
  seconds : float;
  nproc : int;
  inject_mismatch : bool;  (** self-test: corrupt one reference reply *)
  t_process : float;  (** process start, for the first set-up *)
}

(* set-ups per run; [setup_s] is their median *)
let setup_reps = 5

(* the wire step deadline: the one the load generator sends *)
let max_steps = Loadgen.default_max_steps

(* server workers plus its one select loop stay within nproc *)
let server_jobs ctx = max 1 (ctx.nproc - 1)

(* -- keys and references ------------------------------------------------- *)

type key = {
  k_attack : Catalog.t;
  k_config : Config.t;
  k_sanitize : bool;
  k_chaos : int option;
}

let key_id k =
  Fmt.str "%s|%s|%b|%a" k.k_attack.Catalog.id k.k_config.Config.name k.k_sanitize
    Fmt.(option ~none:(any "-") int)
    k.k_chaos

let req_of_key ?(corr = 0) k =
  {
    Frame.rq_corr = corr;
    rq_attack = k.k_attack.Catalog.id;
    rq_config = k.k_config.Config.name;
    rq_chaos_seed = k.k_chaos;
    rq_max_steps = Some max_steps;
    rq_sanitize = k.k_sanitize;
    rq_engine = Driver.env_engine;
    rq_trace = None;
  }

let job_of_key ?max_steps k =
  Service.job ?chaos_seed:k.k_chaos ?max_steps ~sanitize:k.k_sanitize
    ~engine:Driver.env_engine ~config:k.k_config k.k_attack

let signature reply = Loadgen.signature (Frame.rep_of_reply reply)

(* What the service replies for [k], computed without the service — the
   same mirror the E16 gate uses. *)
let reference ?max_steps k =
  let config = k.k_config and engine = Driver.env_engine in
  match k.k_chaos with
  | None ->
    Service.reply_of_result
      (Driver.run ~config ?max_steps ~sanitize:k.k_sanitize ~engine k.k_attack)
  | Some seed ->
    let p = Driver.prepare ~config ~engine k.k_attack in
    Service.reply_of_supervised ~chaos_seed:seed
      (Driver.supervise ~config ?max_steps ~engine
         ~reload:(fun () -> Driver.reset p)
         ~plan:(Plan.generate ~seed ()) k.k_attack)

(* References for many keys, split over [domains] domains. *)
let references ?max_steps ~domains keys =
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let out = Array.make n "" in
  let slice d () =
    let i = ref d in
    while !i < n do
      out.(!i) <- signature (reference ?max_steps keys.(!i));
      i := !i + domains
    done
  in
  let ds = List.init (max 1 domains - 1) (fun d -> Domain.spawn (slice (d + 1))) in
  slice 0 ();
  List.iter Domain.join ds;
  Array.to_list (Array.mapi (fun i k -> (key_id k, out.(i))) keys)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = R.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* distinct genomes, in draw order *)
let genomes rng n =
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

(* -- what a run hands back ----------------------------------------------- *)

type ledger_input = {
  li_keys : key array;  (** the workload's keys the ledger walks *)
  li_genomes : (int * int) list;
      (** (rng seed, draws): the ledger re-draws the workload's genomes
          with [Genome.generate] from these streams *)
  li_server : (Child.t * Pna_net.Client.t) option;
      (** a live child serving [li_keys], for window-1 round trips *)
}

type run = {
  attempted : int;
  failed : int;
  timed_s : float;
  lat_ms : float array;
  lat_at_s : float array;  (** when each latency sample completed *)
  done_s : float array;
      (** when each operation completed, in seconds of timed window *)
  setup_s : float array;
  rss_mb : float;
  checks : (string * bool) list;  (** named whole-run correctness checks *)
  counters : (string * float) list;  (** per-layer figures the loop observed *)
  samples_note : string;
  ledger : ledger_input;
  stop : unit -> unit;  (** release what the run still holds *)
}

(* Compare served signatures with references; every served request whose
   key mismatches is a failure. *)
let mismatches ctx ~served ~(replies : (string, string) Hashtbl.t) refs =
  let refs =
    if ctx.inject_mismatch then
      match refs with (k, s) :: rest -> (k, s ^ "|injected") :: rest | [] -> []
    else refs
  in
  List.fold_left
    (fun bad (k, expected) ->
      match Hashtbl.find_opt replies k with
      | Some got when got <> expected ->
        Fmt.epr "mismatch %s:@.  served    %s@.  reference %s@." k got expected;
        bad + Option.value ~default:1 (Hashtbl.find_opt served k)
      | _ -> bad)
    0 refs

(* set up [setup_reps] times, keep the last; the first is timed from
   process start *)
let repeated_setup ctx ~setup ~discard =
  let times = Array.make setup_reps 0. in
  let rec go i =
    let t0 = if i = 0 then ctx.t_process else Util.now () in
    let v = setup () in
    times.(i) <- Util.now () -. t0;
    if i = setup_reps - 1 then v
    else begin
      discard v;
      go (i + 1)
    end
  in
  let v = go 0 in
  (v, times)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

let gc_counters ~ops (w0, m0) =
  let w1, m1 = gc_words () in
  let ops = float_of_int (max 1 ops) in
  [
    ("gc.alloc_words_per_op", (w1 -. w0) /. ops);
    ("gc.major_per_kop", float_of_int (m1 - m0) *. 1000. /. ops);
  ]

let per_key_counts () : (string, int) Hashtbl.t = Hashtbl.create 256
let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* server-side ratios over a stats delta *)
let server_counters (d : Child.server_stats) =
  let jobs = d.Child.hits +. d.Child.misses in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    ("service.memo_hit_ratio", ratio d.Child.hits jobs);
    ("service.image_local_ratio", ratio (jobs -. d.Child.loads -. d.Child.replicas) jobs);
    ("service.queue_wait_us", ratio d.Child.qwait_sum_us d.Child.qwait_n);
  ]

(* an in-process service's stats in the server's terms *)
let of_service_stats (s : Service.stats) =
  {
    Child.hits = float_of_int s.Service.st_memo_hits;
    misses = float_of_int s.Service.st_memo_misses;
    loads = float_of_int s.Service.st_fresh_loads;
    replicas = float_of_int s.Service.st_replica_clones;
    qwait_n = float_of_int (fst s.Service.st_queue_wait_us);
    qwait_sum_us = snd s.Service.st_queue_wait_us;
  }

let discard (srv, c) =
  Pna_net.Client.close c;
  Child.stop srv

(* requests for the keys [next] yields, counting sends per key *)
let keyed_next ~sent next () =
  match next () with
  | None -> None
  | Some k ->
    let id = key_id k in
    bump sent id;
    Some (id, req_of_key k)

(* The step-budget grinders: correct, but each run spends its whole
   step deadline (seconds under a chaos plan), which would make set-up
   and the latency tail a matter of which seed drew them. *)
let grinders = [ "L15-dos"; "L23-oom" ]

(* -- wire_hit ------------------------------------------------------------ *)

let wire_hit ctx =
  let keys =
    Loadgen.specs ~seed:ctx.seed
      ~targets:
        (List.filter_map
           (fun (a : Catalog.t) ->
             if List.mem a.Catalog.id grinders then None else Some a.Catalog.id)
           All.attacks)
      ()
    |> Array.map (fun (s : Loadgen.spec) ->
           {
             k_attack = Option.get (All.find s.Loadgen.s_attack);
             k_config = Option.get (Config.by_name s.Loadgen.s_config);
             k_sanitize = false;
             k_chaos = s.Loadgen.s_chaos_seed;
           })
  in
  let window = 8 in
  let log = Filename.concat ctx.tmp "server.log" in
  let replies = Child.acc () in
  let rss_note = ref (0., 0.) in
  let setup () =
    let srv = Child.start ~pna:ctx.pna ~log ~jobs:(server_jobs ctx) () in
    let c = Child.connect srv in
    let rss0 = Util.proc_status_mb srv.Child.pid_s "VmRSS" in
    (* warm-up: every key twice, so the memo holds them all *)
    let q = ref (Array.to_list keys @ Array.to_list keys) in
    let next () =
      match !q with
      | k :: rest ->
        q := rest;
        Some (key_id k, req_of_key k)
      | [] -> None
    in
    Child.drive ~window ~deadline:infinity ~next c replies;
    let st = Child.server_stats c in
    rss_note := (Util.proc_status_mb srv.Child.pid_s "VmRSS" -. rss0, st.Child.loads);
    (srv, c)
  in
  let (srv, c), setup_s = repeated_setup ctx ~setup ~discard in
  let warm_failed = replies.Child.failed in
  let rng = R.create (ctx.seed lxor 0x417) in
  let sent = per_key_counts () in
  let a = Child.acc () in
  let s0 = Child.server_stats c in
  let g0 = gc_words () in
  let t0 = Util.now () in
  a.Child.origin <- t0;
  Child.drive ~window ~deadline:(t0 +. ctx.seconds)
    ~next:(keyed_next ~sent (fun () -> Some (R.pick rng keys)))
    c a;
  let timed_s = Util.now () -. t0 in
  let gc = gc_counters ~ops:a.Child.sent g0 in
  let s1 = Child.server_stats c in
  let rss_mb = Util.proc_status_mb srv.Child.pid_s "VmHWM" in
  Child.absorb a replies;
  let refs = references ~max_steps ~domains:ctx.nproc (Array.to_list keys) in
  let bad = mismatches ctx ~served:sent ~replies:a.Child.replies refs in
  let rss_grow, loads = !rss_note in
  {
    attempted = a.Child.sent;
    failed = a.Child.failed + a.Child.conflicts + bad;
    timed_s;
    lat_ms = Util.to_array a.Child.lat_ms;
    lat_at_s = Util.to_array a.Child.done_s;
    done_s = Util.to_array a.Child.done_s;
    setup_s;
    rss_mb;
    checks = [ ("warm-up served", warm_failed = 0 && replies.Child.conflicts = 0) ];
    counters =
      gc
      @ server_counters (Child.diff s1 s0)
      @ [
          ( "net.shed_ratio",
            float_of_int a.Child.shed_replies /. float_of_int (max 1 a.Child.sent) );
          ("service.rss_per_image_kb", rss_grow *. 1024. /. Float.max 1. loads);
        ];
    samples_note = Fmt.str "%d distinct keys, window %d" (Array.length keys) window;
    ledger =
      {
        li_keys = keys;
        li_genomes = [ (ctx.seed * 7919, 12) ];
        li_server = Some (srv, c);
      };
    stop = (fun () -> discard (srv, c));
  }

(* -- wire_miss ----------------------------------------------------------- *)

(* Distinct keys one server lifetime serves. The service never evicts a
   frozen image, so this is what bounds the child's peak RSS; the run
   moves on to a fresh child (outside the timed window) when a lifetime
   is spent. *)
let keys_per_lifetime = 160
let miss_warm = 16

(* The key pool: 96 genomes x [Config.all] x {plain, sanitized}, 1344
   keys. The run cycles through it in one seeded order; a lifetime is
   shorter than the pool, so no child ever sees a key twice and every
   request still misses. A bounded pool keeps the corpus each child
   loads, and the references the run recomputes, the same size however
   fast the server is. *)
let miss_genomes = 96
let miss_rng_seed ctx = ctx.seed lxor 0x3155

let wire_miss ctx =
  let rng = R.create (miss_rng_seed ctx) in
  let gs = genomes rng miss_genomes in
  let corpus = Filename.concat ctx.tmp "corpus.bin" in
  let keys =
    List.concat_map
      (fun g ->
        let a = Build.scenario g in
        List.concat_map
          (fun config ->
            List.map
              (fun s -> { k_attack = a; k_config = config; k_sanitize = s; k_chaos = None })
              [ false; true ])
          Config.all)
      gs
    |> Array.of_list |> shuffle rng
  in
  assert (Array.length keys >= keys_per_lifetime);
  let cursor = ref 0 in
  let sent = per_key_counts () in
  let take () =
    let k = keys.(!cursor mod Array.length keys) in
    incr cursor;
    Some k
  in
  let window = 4 in
  let lifetime = ref 0 in
  let start_child () =
    incr lifetime;
    let file f = Filename.concat ctx.tmp (Fmt.str f !lifetime) in
    let srv =
      Child.start ~pna:ctx.pna ~log:(file "server-%d.log") ~jobs:(server_jobs ctx)
        ~corpus ~memo_log:(file "memo-%d.log") ()
    in
    (srv, Child.connect srv)
  in
  let serve c ~deadline ~limit a =
    let left = ref limit in
    let next () =
      if !left = 0 then None
      else begin
        decr left;
        keyed_next ~sent take ()
      end
    in
    Child.drive ~window ~deadline ~next c a
  in
  let warm = Child.acc () in
  let setup () =
    if not (Sys.file_exists corpus) then Corpus.save corpus gs;
    let srv, c = start_child () in
    serve c ~deadline:infinity ~limit:miss_warm warm;
    (srv, c)
  in
  let first, setup_s = repeated_setup ctx ~setup ~discard in
  let a = Child.acc () in
  let g0 = gc_words () in
  let timed = ref 0. and hwm = ref 0. and grow = ref 0. in
  let delta = ref Child.zero in
  let rec lifetimes (srv, c) ~limit =
    let s0 = Child.server_stats c in
    let rss0 = Util.proc_status_mb srv.Child.pid_s "VmRSS" in
    let t0 = Util.now () in
    a.Child.origin <- t0 -. !timed;
    serve c ~deadline:(t0 +. ctx.seconds -. !timed) ~limit a;
    timed := !timed +. (Util.now () -. t0);
    delta := Child.add !delta (Child.diff (Child.server_stats c) s0);
    hwm := Float.max !hwm (Util.proc_status_mb srv.Child.pid_s "VmHWM");
    grow := !grow +. (Util.proc_status_mb srv.Child.pid_s "VmRSS" -. rss0);
    if !timed < ctx.seconds then begin
      discard (srv, c);
      lifetimes (start_child ()) ~limit:keys_per_lifetime
    end
    else (srv, c)
  in
  let srv, c = lifetimes first ~limit:(keys_per_lifetime - miss_warm) in
  let gc = gc_counters ~ops:a.Child.sent g0 in
  Child.absorb a warm;
  let served = Array.sub keys 0 (min !cursor (Array.length keys)) in
  let refs = references ~max_steps ~domains:ctx.nproc (Array.to_list served) in
  let bad = mismatches ctx ~served:sent ~replies:a.Child.replies refs in
  {
    attempted = a.Child.sent;
    failed = a.Child.failed + a.Child.conflicts + bad;
    timed_s = !timed;
    lat_ms = Util.to_array a.Child.lat_ms;
    lat_at_s = Util.to_array a.Child.done_s;
    done_s = Util.to_array a.Child.done_s;
    setup_s;
    rss_mb = !hwm;
    checks = [ ("warm-up served", warm.Child.failed = 0 && warm.Child.conflicts = 0) ];
    counters =
      gc
      @ server_counters !delta
      @ [
          ( "net.shed_ratio",
            float_of_int a.Child.shed_replies /. float_of_int (max 1 a.Child.sent) );
          ("service.rss_per_image_kb", !grow *. 1024. /. Float.max 1. !delta.Child.loads);
        ];
    samples_note =
      Fmt.str "%d distinct keys, %d server lifetimes in the timed window, window %d"
        (Array.length served)
        (!lifetime - setup_reps + 1)
        window;
    ledger =
      {
        (* the first keys of the order; the ledger's round trips warm
           them on the live child first *)
        li_keys = Array.sub keys 0 32;
        li_genomes = [ (miss_rng_seed ctx, 12) ];
        li_server = Some (srv, c);
      };
    stop = (fun () -> discard (srv, c));
  }

(* -- matrix_batch -------------------------------------------------------- *)

(* The paper matrix — every other catalogue attack x [Config.all] x
   {plain, sanitized}, 378 keys — thinned to every third key. Frozen
   images are never evicted, so the full matrix would hold about 2 GB;
   126 keys still overflow the 16-entry per-worker prepared cache many
   times over. The seed only orders the rounds. *)
let matrix_stride = 3

let matrix_keys () =
  List.concat_map
    (fun (a : Catalog.t) ->
      if List.mem a.Catalog.id grinders then []
      else
        List.concat_map
          (fun config ->
            List.map
              (fun s -> { k_attack = a; k_config = config; k_sanitize = s; k_chaos = None })
              [ false; true ])
          Config.all)
    All.attacks
  |> List.filteri (fun i _ -> i mod matrix_stride = 0)
  |> Array.of_list

let matrix_batch ctx =
  let keys = matrix_keys () in
  let jobs = ctx.nproc in
  let rng = R.create (ctx.seed lxor 0xba7c4) in
  let rss_note = ref (0., 0) in
  let setup () =
    let svc = Service.create ~jobs ~memo:false () in
    let rss0 = Util.proc_status_mb Util.self_pid "VmRSS" in
    ignore (Service.run_batch svc (List.map job_of_key (Array.to_list (shuffle rng keys))));
    rss_note :=
      ( Util.proc_status_mb Util.self_pid "VmRSS" -. rss0,
        (Service.stats svc).Service.st_fresh_loads );
    svc
  in
  let discard svc =
    Service.shutdown svc;
    Gc.compact ()
  in
  let svc, setup_s = repeated_setup ctx ~setup ~discard in
  let st0 = Service.stats svc in
  let replies = Hashtbl.create 512 in
  let sent = per_key_counts () in
  let conflicts = ref 0 in
  let lat = Util.samples () and lat_at = Util.samples () and done_s = Util.samples () in
  let attempted = ref 0 in
  let g0 = gc_words () in
  let t0 = Util.now () in
  let deadline = t0 +. ctx.seconds in
  (* one round is the matrix in a fresh seeded order, submitted [jobs]
     keys per batch so no job queues behind another *)
  (try
     while true do
       let order = shuffle rng keys in
       let i = ref 0 in
       while !i < Array.length order do
         if Util.now () >= deadline then raise Exit;
         let chunk = Array.to_list (Array.sub order !i (min jobs (Array.length order - !i))) in
         i := !i + jobs;
         let b0 = Util.now () in
         let rs = Service.run_batch svc (List.map job_of_key chunk) in
         let b1 = Util.now () in
         Util.push lat ((b1 -. b0) *. 1e3);
         Util.push lat_at (b1 -. t0);
         List.iter2
           (fun k r ->
             incr attempted;
             Util.push done_s (b1 -. t0);
             let id = key_id k and s = signature r in
             bump sent id;
             match Hashtbl.find_opt replies id with
             | None -> Hashtbl.add replies id s
             | Some prior -> if prior <> s then incr conflicts)
           chunk rs
       done
     done
   with Exit -> ());
  let timed_s = Util.now () -. t0 in
  let gc = gc_counters ~ops:!attempted g0 in
  let rss_mb = Util.proc_status_mb Util.self_pid "VmHWM" in
  let st1 = Service.stats svc in
  Service.shutdown svc;
  (* the sequential reference: one domain, the plain driver *)
  let refs = references ~domains:1 (Array.to_list keys) in
  let bad = mismatches ctx ~served:sent ~replies refs in
  let rss_grow, loads = !rss_note in
  {
    attempted = !attempted;
    failed = !conflicts + bad;
    timed_s;
    lat_ms = Util.to_array lat;
    lat_at_s = Util.to_array lat_at;
    done_s = Util.to_array done_s;
    setup_s;
    rss_mb;
    checks = [];
    counters =
      gc
      @ server_counters (Child.diff (of_service_stats st1) (of_service_stats st0))
      @ [ ("service.rss_per_image_kb", rss_grow *. 1024. /. float_of_int (max 1 loads)) ];
    samples_note =
      Fmt.str "%d keys, %d workers, latency per batch of %d" (Array.length keys) jobs jobs;
    ledger =
      {
        li_keys = Array.sub (shuffle (R.create (ctx.seed lxor 0x1ed9)) keys) 0 32;
        li_genomes = [ (ctx.seed * 7919, 12) ];
        li_server = None;
      };
    stop = ignore;
  }

let all = [ ("wire_hit", wire_hit); ("wire_miss", wire_miss); ("matrix_batch", matrix_batch) ]
