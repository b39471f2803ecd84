(** The scenario-execution service: runs catalogue jobs on a {!Pool} of
    domain workers, rewinding prepared machine snapshots between requests
    and memoizing results by [(scenario, config, chaos seed, request
    digest, sanitize)]. The memo is consulted before any machine is
    acquired, so a hit restores, thaws and loads nothing.

    Replies are derived purely from per-job state, so a batch at any
    worker count is verdict-identical to the sequential {!Driver.run}. *)

module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module Config = Pna_defense.Config

(** {1 Jobs and replies} *)

type job = {
  j_attack : Catalog.t;
  j_config : Config.t;
  j_chaos_seed : int option;
      (** [Some s]: run supervised under [Plan.generate ~seed:s] *)
  j_max_steps : int option;  (** per-job deadline in interpreter steps *)
  j_sanitize : bool;
      (** run on the PNASan-instrumented image. A chaos job is supervised
          on a rewound replica of that image too, but the oracle only
          observes: its reply reports no violations and equals the
          unsanitized supervised run. Defaults to
          {!Driver.env_sanitize} so a [PNA_SANITIZE=1] process sanitizes
          pooled and sequential runs alike. *)
  j_trace : (int * int) option;
      (** (trace id, parent span) — the worker retroactively records its
          queue wait as a span under this parent and runs the job with
          the trace context installed, so job/run/verdict spans link
          into the submitter's trace. Never part of the memo key. *)
}

val job :
  ?chaos_seed:int ->
  ?max_steps:int ->
  ?sanitize:bool ->
  ?engine:Driver.engine ->
  ?config:Config.t ->
  ?trace:int * int ->
  Catalog.t ->
  job
(** [?engine] is a compatibility argument with one value
    ({!Driver.engine}); it never changes the job. *)

type reply = {
  r_id : string;
  r_config : string;
  r_chaos_seed : int option;
  r_status : string;  (** rendered outcome status *)
  r_success : bool;
  r_detail : string;
  r_attempts : int;  (** supervised retries; 1 for plain runs *)
  r_cached : bool;  (** served from the memo cache without executing *)
  r_violations : int;
      (** sanitizer violation records; 0 unless the job sanitized *)
}

val reply_of_result : ?chaos_seed:int -> Driver.result -> reply
(** What the service replies for a driver result. *)

val reply_of_supervised : ?chaos_seed:int -> Driver.supervised -> reply

val reference : job -> reply
(** What the job replies with no service in the way: a plain job is one
    fresh {!Driver.run} (honouring [j_sanitize]); a chaos job is one
    {!Driver.supervise} under [Plan.generate ~seed] with a fresh load
    per attempt. No pool, memo, frozen image or rewind is involved, so
    this is the reference every pooled, rewound or memoised reply is
    checked against. *)

val pp_reply : Format.formatter -> reply -> unit

(** {1 Statistics} *)

type stats = {
  st_jobs : int;
  st_memo_hits : int;
  st_memo_misses : int;
  st_memo_evictions : int;  (** LRU entries dropped at the cap *)
  st_snapshot_restores : int;  (** machine rewinds in place of loads *)
  st_fresh_loads : int;  (** machines actually built from programs *)
  st_replica_clones : int;
      (** domain-local replicas thawed from the shared image store — one
          worker pays the loader per key, every other domain clones *)
  st_outcomes : (string * int) list;
      (** {!Pna_minicpp.Outcome.status_key} -> count, sorted; keys with
          no job are left out *)
  st_queue_wait_us : int * float;  (** (observations, total µs) queued *)
  st_execute_us : int * float;  (** (observations, total µs) executing *)
}

val pp_stats : Format.formatter -> stats -> unit

val pp_stats_line : Format.formatter -> stats -> unit
(** Compact [memo h/m  images R/L/C] form for tabular reports. *)

val stats_json : stats -> Pna_telemetry.Jsonx.t
(** Machine-readable form of {!pp_stats} for [--json] CLI output. *)

(** {1 Lifecycle} *)

type t

val create :
  ?jobs:int ->
  ?memo:bool ->
  ?memo_cap:int ->
  ?prepared_cap:int ->
  unit ->
  t
(** [jobs] defaults to [Domain.recommended_domain_count] and is clamped by
    {!Pool.clamp_jobs}; the job queue holds {!Pool.create}'s default
    of 64 (backpressure); [memo] (default true) enables the result
    cache; [memo_cap] (default 65536) is the exact memo entry bound — one
    LRU behind one lock evicts the least recently used entry past it, so
    multi-hour soaks cannot grow memory without limit; [prepared_cap]
    (default 16) bounds each worker's prepared-machine cache. *)

val jobs : t -> int
(** Effective worker count. *)

val stats : t -> stats
(** Read from the instruments of {!registry}, which every job counts
    into directly as it is answered. *)

val registry : t -> Pna_telemetry.Metrics.registry
(** The per-instance registry — counters [pna_service_jobs_total],
    [pna_service_memo_total{result}], [pna_memo_evictions_total],
    [pna_service_images_total{source}],
    [pna_service_outcomes_total{status}] (one per
    {!Pna_minicpp.Outcome.status_keys} entry) and histograms
    [pna_service_queue_wait_us], [pna_service_execute_us]. Workers
    write it as each job is answered; a memo eviction is counted when
    it happens. *)

val pp_prometheus : Format.formatter -> t -> unit
(** Prometheus text-exposition dump of {!registry}. *)

val shutdown : t -> unit

(** {1 Execution} *)

val submit : ?notify:(unit -> unit) -> t -> job -> reply Pool.future
(** Enqueue one job; blocks only when the queue is full. [notify] runs on
    the worker right after the reply becomes peekable (see
    {!Pool.submit}). *)

val try_submit : ?notify:(unit -> unit) -> t -> job -> reply Pool.future option
(** Non-blocking {!submit}: [None] when the job queue is full or the
    service is shutting down — admission control for callers that shed
    load instead of stalling. *)

val exec : t -> job -> reply

(** {1 Memo persistence}

    Hooks the on-disk memo log attaches to: fresh memo entries stream out
    through the sink as they are computed, and a recovered log streams
    back in through {!preload_memo} at startup. *)

val input_digest : int list * string list -> int
(** Stable 63-bit digest (MD5 over a canonical printed form) of an
    attacker input, e.g. {!Driver.prepared_input}. Computed once per
    image and published beside it. *)

val request_digest : input:int -> max_steps:int option -> int
(** The memo key's input component: a stable digest of an
    {!input_digest} and the effective deadline. [max_steps = None] is
    {!Driver.default_budget}, so it shares an entry with
    [Some Driver.default_budget]. *)

type memo_entry = {
  me_attack : string;
  me_config : string;
  me_chaos_seed : int option;
  me_input_hash : int;
      (** the key's {!request_digest}: attacker input and deadline *)
  me_sanitize : bool;
  me_engine : string;
      (** the engine that produced the record: ["bytecode"] for new
          entries, ["interp"] for records written by the former
          tree-walking engine. Not part of the memo key — the first
          record for a key wins whatever its engine. *)
  me_reply : reply;
}

val set_memo_sink : t -> (memo_entry -> unit) option -> unit
(** [Some f]: call [f] for every entry newly added to the memo cache (on
    the worker domain that computed it — [f] must be thread-safe).
    Preloaded entries do not reach the sink. *)

val preload_memo : t -> memo_entry list -> int
(** Warm the cache from recovered log entries; existing keys are kept
    (first writer wins, matching the append-only log). Returns how many
    entries were actually loaded. *)

val run_batch : t -> job list -> reply list
(** Replies in submission order, whatever the pool interleaving. *)

(** {1 Canonical workloads} *)

val matrix_jobs : ?configs:Config.t list -> ?max_steps:int -> unit -> job list
(** The full attack x defense matrix as a job list. *)

val synth_stream : ?chaos_every:int -> seed:int -> n:int -> unit -> job list
(** A deterministic synthetic request stream over the catalogue; every
    [chaos_every]-th request (default 7) runs supervised under a seeded
    fault plan. *)

val now : unit -> float
val timed : (unit -> 'a) -> 'a * float
(** Time a thunk on the monotonic clock: (result, seconds). *)
