(** The crash-safe TCP front end for the {!Pna_service.Service} pool.

    One select loop in its own domain owns the listener and every
    connection and speaks the {!Frame} protocol: requests are admitted
    under an in-flight cap (excess is answered with [Reply_shed] +
    retry-after, never queued without bound), malformed frames are
    answered with a classified [Reply_error] and a connection close
    (never a crash or a hang — an idle timeout reaps half-sent frames),
    and {!stop} drains gracefully: in-flight jobs finish and replies
    flush before sockets close.

    With [memo_log] set, the service's memo cache is persisted through
    {!Memolog}: recovered entries are preloaded at {!start} and fresh
    ones appended as workers compute them, so a [kill -9] loses at most
    the torn tail of the log. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  max_inflight : int;  (** admitted-but-unfinished request cap *)
  max_conns : int;  (** open-connection cap *)
  idle_timeout_s : float;
  drain_timeout_s : float;  (** graceful-stop budget *)
  max_steps_cap : int;  (** ceiling clamped onto every request deadline *)
  retry_after_ms : int;  (** hint carried on shed replies *)
  memo_log : string option;  (** persist the memo cache here *)
}

val default_config : config

type t

val start : ?config:config -> Pna_service.Service.t -> t
(** Bind, recover the memo log (if configured), spawn the loop domain.
    The service outlives the server: {!stop} does not shut the pool
    down. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was 0. *)

val registry : t -> Pna_telemetry.Metrics.registry
(** Counters [pna_net_accepts_total], [pna_net_requests_total],
    [pna_net_served_total], [pna_net_shed_total],
    [pna_net_internal_errors_total],
    [pna_net_protocol_errors_total{class}],
    [pna_net_closes_total{reason}],
    [pna_net_replies_total{kind}] (every outbound frame by kind);
    histogram [pna_net_request_us];
    gauges [pna_net_open_conns], [pna_net_inflight],
    [pna_net_draining] (1 once a graceful stop began),
    [pna_net_queued_replies] (frames waiting in output queues), and —
    when a memo log is configured — the recovery facts
    [pna_net_memo_recovered_entries], [pna_net_memo_torn_bytes],
    [pna_net_memo_dup_entries], [pna_net_memo_skipped_entries]. *)

val recovered : t -> int
(** Memo entries preloaded from the log at startup. *)

val torn_bytes : t -> int
(** Bytes truncated off the memo log's torn tail at startup. *)

val dup_entries : t -> int
(** Log entries dropped as duplicates at preload — what a compaction
    pass would save. *)

val skipped_entries : t -> int
(** Log records skipped at preload because they carry no stable request
    digest (written before it existed); a compaction drops them too. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain in-flight work and output
    up to [drain_timeout_s], join the loop domain, close the memo log.
    Idempotent in effect; safe to call once the loop has already
    exited. *)
