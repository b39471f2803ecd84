(** A fixed-size pool of OCaml 5 domains draining one bounded FIFO.

    One mutex guards the queue; workers park on one condition when it is
    empty and submitters on another when it is full. The lock is held
    only to move a task in or out, never while a task runs. {!submit}
    blocks once [queue_cap] jobs are waiting. Each worker owns a private
    context built by [mk_ctx] inside its own domain — per-worker caches
    live there, so no state is shared between domains without a lock. *)

type 'ctx t

type 'a future

val clamp_jobs : int -> int
(** At least 1, at most [Domain.recommended_domain_count] (never below a
    ceiling of 4, so concurrency tests still exercise the parallel path on
    small hosts). *)

val create :
  ?queue_cap:int ->
  jobs:int ->
  mk_ctx:(unit -> 'ctx) ->
  unit ->
  'ctx t
(** Spawn [clamp_jobs jobs] worker domains over one queue. [queue_cap]
    (default 64) bounds the number of queued-but-unstarted jobs. Each
    worker grows its domain-local minor heap to 4M words before taking
    work: minor collections are stop-the-world across all domains, and
    the runtime default period makes an allocation-heavy pool spend more
    time at GC barriers than executing.
    @raise Invalid_argument on a non-positive [queue_cap]. *)

val jobs : 'ctx t -> int
(** The effective (clamped) worker count. *)

val submit : ?notify:(unit -> unit) -> 'ctx t -> ('ctx -> 'a) -> 'a future
(** Enqueue a job; blocks while the queue is full (backpressure).
    [notify] runs on the worker right after the future is fulfilled (its
    exceptions are swallowed) — the hook an event loop uses to wake
    itself when the result becomes peekable.
    @raise Invalid_argument after {!shutdown}. *)

val try_submit :
  ?notify:(unit -> unit) -> 'ctx t -> ('ctx -> 'a) -> 'a future option
(** Non-blocking {!submit}: [None] when the queue is full or the pool is
    shutting down. Admission control for callers that must never stall —
    a server sheds load instead of blocking its accept loop. *)

val await : 'a future -> 'a
(** Block until the job completes; re-raises the job's exception. *)

val peek : 'a future -> ('a, exn) result option
(** Non-blocking: [None] while the job is pending. *)

val shutdown : 'ctx t -> unit
(** Stop accepting work, drain the queue, join the worker domains.
    Submitters parked at the cap wake and raise [Invalid_argument]. *)
