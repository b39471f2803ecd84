(** Runs catalogue attacks against defense configurations and inspects the
    resulting memory image. *)

module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module Outcome = Pna_minicpp.Outcome
module San = Pna_sanitizer.Sanitizer

type result = {
  attack : Catalog.t;
  config : Config.t;
  outcome : Outcome.t;
  verdict : Catalog.verdict;
  violations : San.violation list;
      (** what the shadow-memory oracle recorded; empty unless the run
          was sanitized *)
}

type engine = [ `Bytecode ]
(** Every scenario runs on the bytecode VM ({!Pna_minicpp.Vm}). [engine],
    {!env_engine}, {!engine_name} and the [?engine] arguments below are
    compatibility names for callers written against the former
    two-engine API: each has one value and nothing reads it to choose a
    path. *)

val env_engine : engine
(** [`Bytecode]; the environment is not consulted. *)

val engine_name : engine -> string
(** ["bytecode"]. *)

val env_sanitize : bool
(** True when the [PNA_SANITIZE] environment variable asked for the
    shadow-memory oracle at process start — the default for every
    [?sanitize] flag here and the one serving layers should share, so a
    pooled run and a sequential run of the same job sanitize alike. *)

val flight_dir : string option
(** The [PNA_FLIGHT_DIR] environment variable at process start. When
    set, every sanitized run records into an ambient
    {!Pna_flight.Flight} session and any violating, crashed or
    timed-out run dumps its forensic bundle under that directory
    automatically — the always-on black box. *)

val run :
  ?config:Config.t ->
  ?max_steps:int ->
  ?sanitize:bool ->
  ?engine:engine ->
  Catalog.t ->
  result
(** Load, compute attacker input against the image, run, judge.
    [max_steps] bounds the step budget — the same deadline knob
    {!supervise} has always taken, so a serving layer can enforce per-job
    deadlines uniformly. [sanitize] (default false, or true when the
    [PNA_SANITIZE] environment variable is set — CI's second test pass)
    attaches the PNASan shadow-memory oracle for the run: violations are
    recorded (never
    halting execution, so the verdict is unchanged) and returned in
    [violations], sealed before the verdict check so attack checks can
    inspect freed and stale memory freely. *)

val run_forensic :
  ?config:Config.t ->
  ?max_steps:int ->
  dir:string ->
  Catalog.t ->
  result * Pna_flight.Flight.session * string
(** A fully instrumented forensic run: the PNASan oracle attached, the
    Vmem write trace armed (so the bundle names the writes that produced
    the corrupting bytes), and a dedicated flight-recorder session.
    The bundle is dumped under [dir] whatever the outcome; the returned
    string is the bundle directory. *)

val run_hardened :
  ?config:Config.t ->
  ?max_steps:int ->
  ?sanitize:bool ->
  Catalog.t ->
  (Outcome.t * bool * San.violation list) option
(** Run the §5.1 hardened twin under the same attacker input; the boolean
    is "safe": exited normally with no hijack event. With [sanitize] the
    oracle rides along — a hardened variant is expected to record zero
    violations (the false-positive half of the E14 gate). *)

(** {1 Prepared scenarios: load once, rewind per run}

    A [prepared] value owns a loaded machine plus a {!Machine.snapshot} of
    its post-load state. [run_prepared] rewinds to that snapshot instead
    of re-deriving the image from the program — byte-identical behaviour
    at a fraction of the setup cost. The machine is owned by the prepared
    value: a prepared scenario must only be driven from one domain at a
    time. *)

type prepared

val prepare :
  ?config:Config.t -> ?sanitize:bool -> ?engine:engine -> Catalog.t -> prepared
(** With [sanitize], the oracle is attached before the snapshot is
    frozen, so every rewind restores the pristine shadow map too. The
    program is compiled here — once — and every rewound run reuses the
    unit. *)

val run_prepared : ?max_steps:int -> prepared -> result

val reset : prepared -> Machine.t
(** Rewind the machine to its post-load snapshot and return it. *)

val restores : prepared -> int
(** How many times this prepared image has been rewound. *)

val prepared_input : prepared -> int list * string list
(** The attacker input computed against the (rewound) prepared image —
    what a memoizing cache digests. *)

val default_budget : int
(** The step budget of a run or supervised attempt given no
    [max_steps] ({!Pna_minicpp.Vm.default_max_steps}). *)

(** {1 Frozen images: one prepared snapshot, many domain replicas}

    An [image] is the immutable part of a prepared scenario — the frozen
    post-load snapshot plus program, config and compiled unit.
    It is only ever read, so one image may be shared between domains;
    {!thaw} instantiates a domain-local replica around it without
    re-running the loader. Replicas share the image's frozen pages, and
    their per-run rewinds write only their dirty pages from it. *)

type image

val freeze : prepared -> image
(** The prepared scenario's shareable part. The prepared value remains
    usable; it and every thawed replica rewind to the same snapshot. *)

val thaw : image -> prepared
(** Build a fresh machine shell over the image's address map (with the
    oracle re-attached when the image was sanitized), restore it to the
    frozen snapshot once, and return it as a domain-local replica —
    byte-identical to the prepared value the image was frozen from. *)

(** {1 Supervised execution under a fault plan} *)

type supervised = {
  sv_attack : Catalog.t;
  sv_config : Config.t;
  sv_plan : Pna_chaos.Plan.t;
  sv_attempts : int;  (** total runs, including the final one *)
  sv_final_attempt : int;
      (** 1-based index of the attempt whose outcome became the verdict *)
  sv_backoff_ms : int list;
      (** simulated exponential backoff before each retry, oldest first *)
  sv_fired : string list;  (** labels of the faults that actually fired *)
  sv_outcome : Outcome.t;
  sv_verdict : Catalog.verdict;
}

val supervise :
  ?config:Config.t ->
  ?max_retries:int ->
  ?jitter_pct:int ->
  ?max_steps:int ->
  ?reload:(unit -> Machine.t) ->
  ?engine:engine ->
  plan:Pna_chaos.Plan.t ->
  Catalog.t ->
  supervised
(** Run [a] under fault plan [plan] with bounded retry: a transient
    outcome (crash, OOM, timeout) provoked by an injected fault is
    retried up to [max_retries] times with simulated exponential backoff
    — plan faults are one-shot, so retries run progressively cleaner. A
    retried run that then completes is reported as
    [Outcome.Recovered]. No injected fault ever escapes as a raw
    exception; every termination is a classified outcome. [reload]
    replaces the per-attempt image build; a serving layer passes a thunk
    that rewinds a prepared machine ({!reset}) instead.

    [jitter_pct] (default 0: pure powers of two, the historical schedule)
    adds up to that percentage of each backoff step, drawn from a
    generator seeded by the plan — replays of the same plan see the same
    schedule. Retries and give-ups are counted in the process-wide
    registry as [pna_supervise_retries_total] /
    [pna_supervise_giveups_total]. *)

val pp_supervised : Format.formatter -> supervised -> unit

(** {1 Memory inspection helpers for checks} *)

val global_addr : Machine.t -> string -> int
val u32 : Machine.t -> int -> int
val f64 : Machine.t -> int -> float
val tainted : Machine.t -> int -> int -> bool
val bytes : Machine.t -> int -> int -> string
val global_u32 : ?off:int -> Machine.t -> string -> int
val global_f64 : ?off:int -> Machine.t -> string -> float
val global_tainted : ?off:int -> Machine.t -> string -> int -> bool
val output_contains : Outcome.t -> string -> bool
val pp_result : Format.formatter -> result -> unit
