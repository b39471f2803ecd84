(** The scenario-execution service: the catalogue as a throughput workload.

    Sequentially, every {!Driver.run} pays the full image build — layout,
    vtable emission, global initialisation — before a single interpreted
    step. This layer interposes prepared machine state instead (the same
    move as VRT's run-time table amortising per-call bookkeeping, or
    S3Library's substitution of a safer execution substrate):

    - a {!Pool} of domain workers drains a bounded job queue;
    - each worker keeps a cache of {!Driver.prepared} scenarios — a loaded
      machine plus its post-load {!Pna_machine.Machine.snapshot} — and
      rewinds instead of reloading between requests;
    - a memoizing result cache keyed by [(scenario, config, chaos seed,
      request digest, sanitize)] serves repeated requests without
      executing at all — and without building a machine: the request
      digest covers the attacker input and the effective deadline, and
      the input's digest is stored beside each frozen image.

    Replies are derived purely from per-job state, so a batch at any
    worker count is verdict-identical to the sequential driver. *)

module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Outcome = Pna_minicpp.Outcome
module Plan = Pna_chaos.Plan
module Metrics = Pna_telemetry.Metrics
module Trace = Pna_telemetry.Trace
module Clock = Pna_telemetry.Clock
module Jsonx = Pna_telemetry.Jsonx

(* ------------------------------------------------------------------ *)
(* Jobs and replies                                                    *)

type job = {
  j_attack : Catalog.t;
  j_config : Config.t;
  j_chaos_seed : int option;
      (** [Some s]: run supervised under [Plan.generate ~seed:s] *)
  j_max_steps : int option;  (** per-job deadline in interpreter steps *)
  j_sanitize : bool;
      (** run on the PNASan-instrumented image. A chaos job is
          supervised on a rewound replica of that image too, but the
          oracle only observes: its reply reports no violations and
          equals the unsanitized supervised run *)
  j_trace : (int * int) option;
      (** (trace id, parent span) — worker-side spans link under the
          submitter's trace; never part of the memo key *)
}

let job ?chaos_seed ?max_steps ?(sanitize = Driver.env_sanitize)
    ?engine:(_ : Driver.engine option) ?(config = Config.none) ?trace
    attack =
  { j_attack = attack; j_config = config; j_chaos_seed = chaos_seed;
    j_max_steps = max_steps; j_sanitize = sanitize; j_trace = trace }

type reply = {
  r_id : string;
  r_config : string;
  r_chaos_seed : int option;
  r_status : string;  (** rendered {!Outcome.pp_status} *)
  r_success : bool;
  r_detail : string;
  r_attempts : int;  (** supervised retries; 1 for plain runs *)
  r_cached : bool;  (** served from the memo cache without executing *)
  r_violations : int;
      (** sanitizer violation records; 0 unless the job sanitized *)
}

let reply_of_result ?chaos_seed (r : Driver.result) =
  {
    r_id = r.Driver.attack.Catalog.id;
    r_config = r.Driver.config.Config.name;
    r_chaos_seed = chaos_seed;
    r_status = Fmt.str "%a" Outcome.pp_status r.Driver.outcome.Outcome.status;
    r_success = r.Driver.verdict.Catalog.success;
    r_detail = r.Driver.verdict.Catalog.detail;
    r_attempts = 1;
    r_cached = false;
    r_violations = List.length r.Driver.violations;
  }

let reply_of_supervised ?chaos_seed (s : Driver.supervised) =
  {
    r_id = s.Driver.sv_attack.Catalog.id;
    r_config = s.Driver.sv_config.Config.name;
    r_chaos_seed = chaos_seed;
    r_status = Fmt.str "%a" Outcome.pp_status s.Driver.sv_outcome.Outcome.status;
    r_success = s.Driver.sv_verdict.Catalog.success;
    r_detail = s.Driver.sv_verdict.Catalog.detail;
    r_attempts = s.Driver.sv_attempts;
    r_cached = false;
    r_violations = 0;
  }

(* The reply with no service in the way: a fresh load per run — per
   attempt under chaos — and no pool, memo, image or rewind. Every
   pooled, rewound or memoised reply is checked against this one. *)
let reference (j : job) =
  let config = j.j_config and max_steps = j.j_max_steps in
  match j.j_chaos_seed with
  | None ->
    reply_of_result
      (Driver.run ~config ?max_steps ~sanitize:j.j_sanitize j.j_attack)
  | Some seed ->
    reply_of_supervised ~chaos_seed:seed
      (Driver.supervise ~config ?max_steps ~plan:(Plan.generate ~seed ())
         j.j_attack)

let pp_reply ppf r =
  Fmt.pf ppf "%-16s %-14s %s%s: %s%s%s" r.r_id r.r_config
    (match r.r_chaos_seed with None -> "" | Some s -> Fmt.str "seed=%d " s)
    (if r.r_success then "ATTACK SUCCEEDED" else "attack failed")
    r.r_status
    (if r.r_violations > 0 then Fmt.str " [%d san]" r.r_violations else "")
    (if r.r_cached then " [memo]" else "")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* The aggregate view derived from the service's metrics registry — the
   registry is the single source of truth; this record is the stable
   reporting shape the CLI and tests consume. *)
type stats = {
  st_jobs : int;  (** replies produced *)
  st_memo_hits : int;
  st_memo_misses : int;
  st_memo_evictions : int;  (** LRU entries dropped at the cap *)
  st_snapshot_restores : int;  (** machine rewinds in place of loads *)
  st_fresh_loads : int;  (** machines actually built from programs *)
  st_replica_clones : int;
      (** domain-local replicas thawed from the shared image store —
          machines built by restoring a frozen snapshot instead of
          re-running the loader *)
  st_outcomes : (string * int) list;  (** status key -> count, sorted *)
  st_queue_wait_us : int * float;  (** (observations, total µs) queued *)
  st_execute_us : int * float;  (** (observations, total µs) executing *)
}

(* compact single-line form for tabular reports *)
let pp_stats_line ppf s =
  Fmt.pf ppf "memo %d/%d  images %dR/%dL/%dC" s.st_memo_hits s.st_memo_misses
    s.st_snapshot_restores s.st_fresh_loads s.st_replica_clones

let mean_ms (n, total_us) =
  if n = 0 then 0. else total_us /. float_of_int n /. 1000.

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>jobs: %d@,memo: %d hit / %d miss / %d evicted@,images: %d restored \
     / %d loaded / %d cloned@,queue wait: %.3f ms mean / execute: %.3f ms \
     mean@,outcomes: %a@]"
    s.st_jobs s.st_memo_hits s.st_memo_misses s.st_memo_evictions
    s.st_snapshot_restores s.st_fresh_loads s.st_replica_clones
    (mean_ms s.st_queue_wait_us)
    (mean_ms s.st_execute_us)
    Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") string int))
    s.st_outcomes

let stats_json s : Jsonx.t =
  let hist name (n, total_us) =
    ( name,
      Jsonx.Obj
        [
          ("count", Jsonx.Int n);
          ("total_us", Jsonx.Float total_us);
          ("mean_ms", Jsonx.Float (mean_ms (n, total_us)));
        ] )
  in
  Jsonx.Obj
    [
      ("jobs", Jsonx.Int s.st_jobs);
      ("memo_hits", Jsonx.Int s.st_memo_hits);
      ("memo_misses", Jsonx.Int s.st_memo_misses);
      ("memo_evictions", Jsonx.Int s.st_memo_evictions);
      ("snapshot_restores", Jsonx.Int s.st_snapshot_restores);
      ("fresh_loads", Jsonx.Int s.st_fresh_loads);
      ("replica_clones", Jsonx.Int s.st_replica_clones);
      ( "outcomes",
        Jsonx.Obj (List.map (fun (k, n) -> (k, Jsonx.Int n)) s.st_outcomes) );
      hist "queue_wait" s.st_queue_wait_us;
      hist "execute" s.st_execute_us;
    ]

(* ------------------------------------------------------------------ *)
(* The service                                                         *)

type image_key = string * string * bool  (** (scenario, config, sanitize) *)

(* Per-worker context: the prepared-scenario cache. A live machine's
   layers (contents + taint, plus shadows when sanitized) take 1.4 to
   2.1 MB, while its frozen snapshot keeps only the pages that differ
   from a uniform fill, so the cache is bounded with FIFO eviction; hot
   scenarios stay prepared, a cold sweep degrades to thaw-per-job. *)
type ctx = {
  cx_prepared : (image_key, Driver.prepared * int) Hashtbl.t;
      (** the prepared scenario + the {!input_digest} of its attacker
          input, copied from the image store entry it was built for *)
  cx_order : image_key Queue.t;
  cx_cap : int;
}

(* (scenario, config, chaos seed, request digest, sanitize) *)
type memo_key = string * string * int option * int * bool

(* The first 63 bits of an MD5 digest: stable across processes and
   builds (unlike [Hashtbl.hash], which is also shallow), so the value
   can be persisted in the memo log. *)
let digest63 s = Int64.to_int (String.get_int64_le (Digest.string s) 0)

(* The attacker input against a freshly rewound image is a pure function
   of the frozen snapshot, so it is digested once, when the image is
   built, over a canonical printed form of every value. *)
let input_digest (ints, strings) =
  let b = Buffer.create 64 in
  List.iter
    (fun i ->
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ',')
    ints;
  Buffer.add_char b ';';
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    strings;
  digest63 (Buffer.contents b)

(* The memo key's input component: the input digest and the deadline the
   run actually gets. A reply depends on both — a request that timed out
   under a tight deadline says nothing about a generous one. [None] is
   the driver's default budget, so it shares an entry with [Some] of it.
   Computed on every lookup, so over 16 fixed bytes, not a printed form. *)
let request_digest ~input ~max_steps =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int input);
  Bytes.set_int64_le b 8
    (Int64.of_int (Option.value max_steps ~default:Driver.default_budget));
  digest63 (Bytes.unsafe_to_string b)

(* The memo cache: one bounded LRU behind one lock. Entries carry a
   last-use generation and the order queue holds (key, generation)
   stamps. A hit re-stamps the entry and enqueues a fresh stamp;
   eviction pops stamps from the front and only trusts one that still
   matches its entry — stale stamps (the entry was used again later) are
   discarded. This keeps hits O(1) with no list splicing, at the cost of
   lazy deletion in the queue, which [compact_order] bounds. *)
type memo = {
  mc_mutex : Mutex.t;
  mc_tbl : (memo_key, reply * int ref) Hashtbl.t;  (* reply + last-use gen *)
  mc_order : (memo_key * int) Queue.t;  (* (key, gen at stamp time) *)
  mutable mc_gen : int;
  mc_cap : int;  (** exact entry cap *)
  mc_evictions : Metrics.counter;  (** [pna_memo_evictions_total] *)
}

let mk_memo ~cap ~evictions =
  {
    mc_mutex = Mutex.create ();
    mc_tbl = Hashtbl.create 32;
    mc_order = Queue.create ();
    mc_gen = 0;
    mc_cap = cap;
    mc_evictions = evictions;
  }

let stamp mc key genref =
  mc.mc_gen <- mc.mc_gen + 1;
  genref := mc.mc_gen;
  Queue.add (key, mc.mc_gen) mc.mc_order

(* Drop stale stamps so the order queue stays proportional to the table.
   A fresh head is re-stamped to the back — a bounded pass, since at most
   [cap] live entries can be fresh. *)
let compact_order mc =
  let cap = mc.mc_cap in
  if Queue.length mc.mc_order > 4 * cap then begin
    let budget = ref (Queue.length mc.mc_order) in
    while Queue.length mc.mc_order > 2 * cap && !budget > 0 do
      decr budget;
      match Queue.take_opt mc.mc_order with
      | None -> budget := 0
      | Some (k, g) -> (
        match Hashtbl.find_opt mc.mc_tbl k with
        | Some (_, gr) when !gr = g -> stamp mc k gr
        | _ -> ())
    done
  end

let evict_lru mc =
  let give_up = ref false in
  while Hashtbl.length mc.mc_tbl > mc.mc_cap && not !give_up do
    match Queue.take_opt mc.mc_order with
    | None -> give_up := true  (* unreachable: every entry has a stamp *)
    | Some (k, g) -> (
      match Hashtbl.find_opt mc.mc_tbl k with
      | Some (_, gr) when !gr = g ->
        Hashtbl.remove mc.mc_tbl k;
        Metrics.incr mc.mc_evictions
      | _ -> ())
  done

(* Registry-backed instrumentation, one registry per service instance so
   tests (and parallel services) see isolated counters. Every instrument,
   one outcome counter per status key included, is interned here, so a
   job's accounting never looks anything up in the registry. *)
type instruments = {
  i_registry : Metrics.registry;
  i_jobs : Metrics.counter;
  i_memo_hit : Metrics.counter;
  i_memo_miss : Metrics.counter;
  i_restores : Metrics.counter;
  i_loads : Metrics.counter;
  i_replicas : Metrics.counter;
  i_evictions : Metrics.counter;
  i_outcomes : (string * Metrics.counter) list;  (** status key -> counter *)
  i_queue_wait : Metrics.histogram;  (** µs from submit to dequeue *)
  i_execute : Metrics.histogram;  (** µs executing (memo hits excluded) *)
}

let mk_instruments () =
  let reg = Metrics.create () in
  {
    i_registry = reg;
    i_jobs = Metrics.counter reg "pna_service_jobs_total";
    i_memo_hit =
      Metrics.counter reg "pna_service_memo_total" ~labels:[ ("result", "hit") ];
    i_memo_miss =
      Metrics.counter reg "pna_service_memo_total"
        ~labels:[ ("result", "miss") ];
    i_restores =
      Metrics.counter reg "pna_service_images_total"
        ~labels:[ ("source", "snapshot_restore") ];
    i_loads =
      Metrics.counter reg "pna_service_images_total"
        ~labels:[ ("source", "fresh_load") ];
    i_replicas =
      Metrics.counter reg "pna_service_images_total"
        ~labels:[ ("source", "replica_thaw") ];
    i_evictions = Metrics.counter reg "pna_memo_evictions_total";
    i_outcomes =
      List.map
        (fun k ->
          ( k,
            Metrics.counter reg "pna_service_outcomes_total"
              ~labels:[ ("status", k) ] ))
        Outcome.status_keys;
    i_queue_wait = Metrics.histogram reg "pna_service_queue_wait_us";
    i_execute = Metrics.histogram reg "pna_service_execute_us";
  }

(* A memo entry in portable form: the full key fields plus the reply —
   what the persistence layer appends to its log and feeds back through
   [preload_memo] on recovery. *)
type memo_entry = {
  me_attack : string;
  me_config : string;
  me_chaos_seed : int option;
  me_input_hash : int;
  me_sanitize : bool;
  me_engine : string;
      (** the engine that produced the record; not part of the key *)
  me_reply : reply;
}

(* A slot of the shared image store: claimed by the one worker building
   it, then the frozen image beside its {!input_digest}. *)
type image_slot = Building | Built of Driver.image * int

type t = {
  pool : ctx Pool.t;
  images : (image_key, image_slot) Hashtbl.t;
      (** the shared frozen-image store, same key as [cx_prepared]. The
          first worker to miss on a key claims the slot, pays
          [Driver.prepare] and publishes the image with its input digest;
          every other domain reads the digest from here to look up the
          memo, and thaws a local replica only when it must execute.
          Built entries are immutable and never evicted — one image per
          (scenario, config, sanitize) point, bounded by the catalogue.
          An image keeps only its non-uniform pages (a few KiB for a
          catalogue attack), plus its compiled unit and layout env. *)
  images_mutex : Mutex.t;  (** guards [images]; local misses only *)
  images_built : Condition.t;
      (** broadcast when a [Building] slot is filled or released *)
  memo : memo option;  (** [None]: memoization off *)
  memo_sink : (memo_entry -> unit) option Atomic.t;
      (** mirrors fresh memo entries; runs on the worker that computed
          them *)
  ins : instruments;
}

let default_memo_cap = 65_536

let create ?(jobs = Domain.recommended_domain_count ()) ?(memo = true)
    ?(memo_cap = default_memo_cap) ?(prepared_cap = 16) () =
  if prepared_cap < 1 then
    invalid_arg "Service.create: prepared_cap must be positive";
  if memo_cap < 1 then
    invalid_arg "Service.create: memo_cap must be positive";
  (* runs inside each worker domain at spawn *)
  let mk_ctx () =
    {
      cx_prepared = Hashtbl.create prepared_cap;
      cx_order = Queue.create ();
      cx_cap = prepared_cap;
    }
  in
  let ins = mk_instruments () in
  {
    pool = Pool.create ~jobs ~mk_ctx ();
    images = Hashtbl.create 64;
    images_mutex = Mutex.create ();
    images_built = Condition.create ();
    memo =
      (if memo then Some (mk_memo ~cap:memo_cap ~evictions:ins.i_evictions)
       else None);
    memo_sink = Atomic.make None;
    ins;
  }

let jobs t = Pool.jobs t.pool

let registry t = t.ins.i_registry

let pp_prometheus ppf t = Metrics.pp_prometheus ppf (registry t)

let stats t =
  let i = t.ins in
  let hist h = (Metrics.hist_count h, Metrics.hist_sum h) in
  {
    st_jobs = Metrics.count i.i_jobs;
    st_memo_hits = Metrics.count i.i_memo_hit;
    st_memo_misses = Metrics.count i.i_memo_miss;
    st_memo_evictions = Metrics.count i.i_evictions;
    st_snapshot_restores = Metrics.count i.i_restores;
    st_fresh_loads = Metrics.count i.i_loads;
    st_replica_clones = Metrics.count i.i_replicas;
    st_outcomes =
      List.filter_map
        (fun (k, c) ->
          let n = Metrics.count c in
          if n > 0 then Some (k, n) else None)
        i.i_outcomes
      |> List.sort compare;
    st_queue_wait_us = hist i.i_queue_wait;
    st_execute_us = hist i.i_execute;
  }

let shutdown t = Pool.shutdown t.pool

(* --- worker-side execution --- *)

(* How a job is answered, cheapest tier first:

   0. the memo — looked up before any machine work. Its key needs the
      attacker input's digest, which is stored beside each frozen
      image: read it from the worker's own [cx_prepared] entry (no
      lock), else from the service-wide image store (one lock). A hit
      returns without a restore, a thaw or a load. Only while no image
      has been built for the key is the digest unknown; the job then goes
      down the tiers below and consults the memo once it has one, so a
      log-preloaded entry still answers the first request after a
      restart.

   On a miss the job needs a machine, and [prepared_for] finds one:

   1. the worker's own [cx_prepared] — domain-local, no synchronization,
      the hot path for every repeat of a warm key;
   2. the frozen-image store — thaw a domain-local replica from the
      shared image (a snapshot restore, ~three orders of magnitude
      cheaper than the loader) rather than re-deriving it;
   3. [Driver.prepare] — the one true cold path. The worker claims the
      key's slot first, so a concurrent cold miss on the same key waits
      for this build and thaws it instead of loading a duplicate; the
      input digest is taken from the fresh machine and stored with
      the frozen image. Each image is loaded once, and every load or
      thaw serves a job that then executes — unless a preloaded memo
      entry answers the job that built the first image.

   Replicas never cross domains: the shared store holds only immutable
   images; every machine a worker touches was built on that worker. *)
let image_key (j : job) : image_key =
  (j.j_attack.Catalog.id, j.j_config.Config.name, j.j_sanitize)

let image_digest t key =
  Mutex.lock t.images_mutex;
  let d =
    match Hashtbl.find_opt t.images key with
    | Some (Built (_, digest)) -> Some digest
    | Some Building | None -> None
  in
  Mutex.unlock t.images_mutex;
  d

(* The built image for [key], waiting out another worker's build; or
   [None] once the slot is claimed for the caller to build. *)
let claim_or_wait t key =
  Mutex.lock t.images_mutex;
  let rec go () =
    match Hashtbl.find_opt t.images key with
    | Some (Built (im, digest)) -> Some (im, digest)
    | Some Building ->
      Condition.wait t.images_built t.images_mutex;
      go ()
    | None ->
      Hashtbl.replace t.images key Building;
      None
  in
  let r = go () in
  Mutex.unlock t.images_mutex;
  r

let settle t key slot =
  Mutex.lock t.images_mutex;
  (match slot with
  | Some built -> Hashtbl.replace t.images key built
  | None -> Hashtbl.remove t.images key);
  Condition.broadcast t.images_built;
  Mutex.unlock t.images_mutex

let build t key (j : job) =
  match
    let p =
      Driver.prepare ~config:j.j_config ~sanitize:j.j_sanitize j.j_attack
    in
    let digest = input_digest (Driver.prepared_input p) in
    (p, digest, Driver.freeze p)
  with
  | p, digest, im ->
    Metrics.incr t.ins.i_loads;
    settle t key (Some (Built (im, digest)));
    (p, digest)
  | exception e ->
    (* release the claim, so waiters retry rather than hang *)
    settle t key None;
    raise e

let prepared_for t ctx key (j : job) =
  match Hashtbl.find_opt ctx.cx_prepared key with
  | Some entry -> entry
  | None ->
    let entry =
      match claim_or_wait t key with
      | Some (im, digest) ->
        Metrics.incr t.ins.i_replicas;
        (Driver.thaw im, digest)
      | None -> build t key j
    in
    if Hashtbl.length ctx.cx_prepared >= ctx.cx_cap then begin
      match Queue.take_opt ctx.cx_order with
      | Some oldest -> Hashtbl.remove ctx.cx_prepared oldest
      | None -> ()
    end;
    Hashtbl.replace ctx.cx_prepared key entry;
    Queue.add key ctx.cx_order;
    entry

let memo_find t key =
  match t.memo with
  | None -> None
  | Some mc ->
    Mutex.lock mc.mc_mutex;
    let r =
      match Hashtbl.find_opt mc.mc_tbl key with
      | None -> None
      | Some (reply, genref) ->
        stamp mc key genref;
        compact_order mc;
        Some reply
    in
    Mutex.unlock mc.mc_mutex;
    r

(* [true] iff the entry is new — the caller mirrors fresh entries to the
   persistence sink, and only fresh ones. *)
let memo_store t key reply =
  match t.memo with
  | None -> false
  | Some mc ->
    Mutex.lock mc.mc_mutex;
    let added =
      if Hashtbl.mem mc.mc_tbl key then false
      else begin
        let genref = ref 0 in
        Hashtbl.add mc.mc_tbl key (reply, genref);
        stamp mc key genref;
        evict_lru mc;
        true
      end
    in
    Mutex.unlock mc.mc_mutex;
    added


(* Every reply is counted by the key of its rendered status — a memo
   hit carries only the rendered form. A status no head matches (a
   record from a foreign memo log) counts as an internal error. *)
let account t reply ~restores ~memo_hit =
  let i = t.ins in
  Metrics.incr i.i_jobs;
  Metrics.incr (if memo_hit then i.i_memo_hit else i.i_memo_miss);
  if restores > 0 then Metrics.incr ~by:restores i.i_restores;
  let k =
    Option.value ~default:"internal-error"
      (Outcome.key_of_rendered reply.r_status)
  in
  Metrics.incr (List.assoc k i.i_outcomes)

(* The input digest of a key's image, if one has been stored —
   without touching a machine. Memo off: nothing to look up. *)
let known_digest t ctx key =
  if t.memo = None then None
  else
    match Hashtbl.find_opt ctx.cx_prepared key with
    | Some (_, digest) -> Some digest
    | None -> image_digest t key

let memo_key (j : job) digest : memo_key =
  ( j.j_attack.Catalog.id,
    j.j_config.Config.name,
    j.j_chaos_seed,
    request_digest ~input:digest ~max_steps:j.j_max_steps,
    j.j_sanitize )

let serve_hit t cached =
  let reply = { cached with r_cached = true } in
  Trace.add_args [ ("memo", Trace.Bool true) ];
  account t reply ~restores:0 ~memo_hit:true;
  reply

let run_miss t (j : job) p key =
  let restores_before = Driver.restores p in
  let t0 = Clock.now_ns () in
  let reply =
    match j.j_chaos_seed with
    | None -> reply_of_result (Driver.run_prepared ?max_steps:j.j_max_steps p)
    | Some seed ->
      let plan = Plan.generate ~seed () in
      let s =
        Driver.supervise ~config:j.j_config ?max_steps:j.j_max_steps
          ~reload:(fun () -> Driver.reset p)
          ~plan j.j_attack
      in
      reply_of_supervised ~chaos_seed:seed s
  in
  Metrics.observe t.ins.i_execute
    (Clock.elapsed_us ~a:t0 ~b:(Clock.now_ns ()));
  Trace.add_args
    [ ("memo", Trace.Bool false); ("status", Trace.Str reply.r_status) ];
  if memo_store t key reply then begin
    match Atomic.get t.memo_sink with
    | None -> ()
    | Some sink ->
      let id, config, chaos_seed, input_hash, sanitize = key in
      sink
        {
          me_attack = id;
          me_config = config;
          me_chaos_seed = chaos_seed;
          me_input_hash = input_hash;
          me_sanitize = sanitize;
          me_engine = Driver.engine_name Driver.env_engine;
          me_reply = reply;
        }
  end;
  account t reply ~restores:(Driver.restores p - restores_before)
    ~memo_hit:false;
  reply

let execute t ctx (j : job) =
  Trace.with_span ~cat:"service" "job"
    ~args:
      [
        ("scenario", Trace.Str j.j_attack.Catalog.id);
        ("config", Trace.Str j.j_config.Config.name);
      ]
  @@ fun () ->
  let ikey = image_key j in
  let early = Option.map (memo_key j) (known_digest t ctx ikey) in
  match Option.bind early (memo_find t) with
  | Some cached -> serve_hit t cached
  | None -> (
    let p, digest = prepared_for t ctx ikey j in
    let key = memo_key j digest in
    (* no image had been built: a preloaded entry may still answer *)
    match if early = None then memo_find t key else None with
    | Some cached -> serve_hit t cached
    | None -> run_miss t j p key)

(* --- client API --- *)

(* Queue-wait is measured from submission to the moment a worker picks
   the job up — the closure runs on the worker, so the delta between the
   two samples below is exactly the time spent queued. The clock is
   monotonic (one sample per transition), so a wall-clock step can never
   produce a negative or garbage wait. *)
(* A traced job retroactively records its queue wait as a span under
   the submitter's parent, then runs [execute] with the trace context
   installed so the job/run/verdict spans link into the same tree. *)
let queue_wait_span (j : job) ~enqueued ~wait_us =
  match j.j_trace with
  | Some (tid, parent) ->
    Trace.emit ~cat:"service" ~name:"queue-wait"
      ~ts_us:(Trace.us_of_ns enqueued) ~dur_us:wait_us
      ~trace:(tid, Trace.next_span_id (), parent) ()
  | None -> ()

let traced_execute t ctx (j : job) =
  match j.j_trace with
  | None -> execute t ctx j
  | Some (tid, parent) ->
    Trace.with_ctx (Some { Trace.trace_id = tid; parent_span = parent })
      (fun () -> execute t ctx j)

let submit ?notify t j =
  let enqueued = Clock.now_ns () in
  Pool.submit ?notify t.pool (fun ctx ->
      let wait_us = Clock.elapsed_us ~a:enqueued ~b:(Clock.now_ns ()) in
      Metrics.observe t.ins.i_queue_wait wait_us;
      queue_wait_span j ~enqueued ~wait_us;
      traced_execute t ctx j)

(* Non-blocking admission for the network front end: [None] means the
   queue is full and the caller should shed the request. *)
let try_submit ?notify t j =
  let enqueued = Clock.now_ns () in
  Pool.try_submit ?notify t.pool (fun ctx ->
      let wait_us = Clock.elapsed_us ~a:enqueued ~b:(Clock.now_ns ()) in
      Metrics.observe t.ins.i_queue_wait wait_us;
      queue_wait_span j ~enqueued ~wait_us;
      traced_execute t ctx j)

let exec t j = Pool.await (submit t j)

(* -- memo persistence hooks ---------------------------------------- *)

let set_memo_sink t sink = Atomic.set t.memo_sink sink

(* Recovery path: replayed log entries become warm cache state. Existing
   keys win — the log is append-only, so the first record for a key is
   the authoritative one (matching [memo_store]'s first-writer-wins). The
   sink is deliberately not invoked: preloaded entries are already on
   disk. The producing engine is not part of the key: a log written when
   the tree-walking engine still existed holds the same verdicts (E19),
   so its records warm the same entries. *)
let preload_memo t entries =
  let loaded = ref 0 in
  List.iter
    (fun e ->
      let key =
        (e.me_attack, e.me_config, e.me_chaos_seed, e.me_input_hash,
         e.me_sanitize)
      in
      if memo_store t key { e.me_reply with r_cached = false } then
        incr loaded)
    entries;
  !loaded

(* Submission order is reply order: futures are awaited in sequence, so a
   batch is deterministic however the pool interleaves the work. *)
let run_batch t js = List.map Pool.await (List.map (submit t) js)

(* ------------------------------------------------------------------ *)
(* Canonical workloads                                                 *)

(* The full §5 experiment matrix as a job list. *)
let matrix_jobs ?(configs = Config.all) ?max_steps () =
  List.concat_map
    (fun (a : Catalog.t) ->
      List.map (fun config -> job ?max_steps ~config a) configs)
    All.attacks

(* A seeded synthetic request stream over the catalogue: every
   [chaos_every]-th request runs supervised under a generated fault plan,
   the rest are plain scenario runs. Deterministic in [seed]. *)
let synth_stream ?(chaos_every = 7) ~seed ~n () =
  let rng = Random.State.make [| 0x5e41ce; seed |] in
  let attacks = Array.of_list All.attacks in
  let configs = Array.of_list Config.all in
  List.init n (fun i ->
      let a = attacks.(Random.State.int rng (Array.length attacks)) in
      let config = configs.(Random.State.int rng (Array.length configs)) in
      let chaos_seed =
        if chaos_every > 0 && i mod chaos_every = chaos_every - 1 then
          Some (1 + Random.State.int rng 1000)
        else None
      in
      job ?chaos_seed ~max_steps:2_000_000 ~config a)

let now () = Unix.gettimeofday ()

(* Time a thunk on the monotonic clock: (result, seconds). *)
let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.elapsed_s ~a:t0 ~b:(Clock.now_ns ()))
