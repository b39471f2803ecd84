(** The TCP front end: one select loop in its own domain bridging
    socket I/O to the {!Pna_service.Service} pool.

    The loop owns the listener and every connection (read, decode,
    submit, reply), so its tables and admission counters are private to
    its domain; only the stop flag and the self-pipe are touched from
    outside it.

    Robustness properties, each load-bearing for the E16 gates:

    - {b No malformed frame crashes or hangs the loop.} Decoding is
      total ({!Frame.decode}), a protocol error answers with
      [Reply_error] and closes the connection after the reply flushes,
      and the idle timeout reaps connections that send a partial frame
      and then nothing — including a frame whose length field promises
      bytes that never arrive.
    - {b Admission control, never queueing without bound.} A request is
      admitted only while in-flight jobs are under [max_inflight] and
      {!Service.try_submit} accepts it; otherwise the client gets an
      immediate [Reply_shed] with a retry-after hint. The accept loop
      itself never blocks on the pool.
    - {b Graceful drain.} [stop] closes the listener, lets in-flight
      jobs finish and replies flush up to a deadline, then force-closes
      stragglers — every termination path is counted.

    The loop never blocks in [select] for long: worker domains fulfil
    futures and poke the self-pipe ({!Pool} [~notify]), so completions
    wake the loop immediately instead of on the next tick. *)

module Service = Pna_service.Service
module Pool = Pna_service.Pool
module Metrics = Pna_telemetry.Metrics
module Trace = Pna_telemetry.Trace
module Switch = Pna_telemetry.Switch
module Clock = Pna_telemetry.Clock
module Jsonx = Pna_telemetry.Jsonx
module Flight = Pna_flight.Flight
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Config = Pna_defense.Config

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  max_inflight : int;  (** admitted-but-unfinished request cap *)
  max_conns : int;
  idle_timeout_s : float;
  drain_timeout_s : float;  (** graceful-stop budget *)
  max_steps_cap : int;  (** ceiling clamped onto every request deadline *)
  retry_after_ms : int;  (** hint carried on shed replies *)
  memo_log : string option;  (** persist the memo cache here *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_inflight = 64;
    max_conns = 128;
    idle_timeout_s = 10.;
    drain_timeout_s = 10.;
    max_steps_cap = 2_000_000;
    retry_after_ms = 25;
    memo_log = None;
  }

(* -- per-connection state (loop-domain private) ---------------------- *)

type pending = {
  p_corr : int;
  p_future : Service.reply Pool.future;
  p_t0 : int64;  (** admission timestamp, monotonic ns *)
  p_trace : (int * int * int) option;
      (** (trace id, server span id, client parent span) — set when the
          request carried a trace context and telemetry is on; the
          server's request span is emitted retroactively at reply time *)
}

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : string;  (** undecoded inbound bytes *)
  out : string Queue.t;
  mutable woff : int;  (** bytes of [Queue.peek out] already written *)
  mutable pending : pending list;
  mutable last_activity : float;
  mutable draining : bool;  (** close once pending and out are empty *)
  mutable close_reason : string;
  opened_us : float;  (** accept time on the trace clock *)
}

type t = {
  cfg : config;
  svc : Service.t;
  lsock : Unix.file_descr;
  srv_port : int;
  pipe : Unix.file_descr * Unix.file_descr;
      (** the self-pipe: workers and [stop] write to wake the loop *)
  stop_flag : bool Atomic.t;
  reg : Metrics.registry;
  m_accepts : Metrics.counter;
  m_requests : Metrics.counter;
  m_served : Metrics.counter;
  m_shed : Metrics.counter;
  m_internal : Metrics.counter;
  m_request_us : Metrics.histogram;
  m_open_conns : Metrics.gauge;
  m_inflight : Metrics.gauge;
  m_draining : Metrics.gauge;  (** 1 once a graceful stop began *)
  m_queued_replies : Metrics.gauge;  (** frames waiting in output queues *)
  log : Memolog.t option;
  recovered : int;  (** memo entries preloaded from the log *)
  torn_bytes : int;
  dup_entries : int;  (** log entries dropped as duplicates at preload *)
  skipped_entries : int;  (** log records without a stable digest *)
  mutable loop : unit Domain.t option;
}

let port t = t.srv_port
let registry t = t.reg
let recovered t = t.recovered
let torn_bytes t = t.torn_bytes
let dup_entries t = t.dup_entries
let skipped_entries t = t.skipped_entries

(* a full pipe already guarantees a wakeup; a closed one means the
   loop is gone — both are fine to ignore *)
let wake t =
  try ignore (Unix.write (snd t.pipe) (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* -- the loop -------------------------------------------------------- *)

let close_counter t reason =
  Metrics.counter t.reg "pna_net_closes_total" ~labels:[ ("reason", reason) ]

let proto_counter t cls =
  Metrics.counter t.reg "pna_net_protocol_errors_total"
    ~labels:[ ("class", cls) ]

let frame_kind = function
  | Frame.Request _ -> "request"
  | Frame.Reply_ok _ -> "ok"
  | Frame.Reply_shed _ -> "shed"
  | Frame.Reply_error _ -> "error"
  | Frame.Ping _ -> "ping"
  | Frame.Pong _ -> "pong"
  | Frame.Stats_req _ -> "stats-req"
  | Frame.Stats_rep _ -> "stats"

let reply_counter t kind =
  Metrics.counter t.reg "pna_net_replies_total" ~labels:[ ("kind", kind) ]

(* Every outbound frame is counted by kind and noted in the flight
   recorder's always-on ring — the "last N frames" a forensic bundle
   replays. *)
let enqueue t c msg =
  Metrics.incr (reply_counter t (frame_kind msg));
  Flight.note ~kind:"frame"
    [ ("dir", Jsonx.Str "out"); ("frame", Jsonx.Str (frame_kind msg)) ];
  Queue.add (Frame.encode msg) c.out

(* The wire answer to a Stats_req: this registry plus the service's,
   rendered as Prometheus text and clamped to one string field. *)
let stats_payload t =
  let s =
    Fmt.str "%a%a" Metrics.pp_prometheus t.reg Service.pp_prometheus t.svc
  in
  if String.length s > Frame.max_str then String.sub s 0 Frame.max_str else s

(* [All.find] also sees dynamically registered scenarios (a generated
   corpus loaded at startup), not just the static paper catalogue. *)
let find_attack id = All.find id

let find_config name =
  List.find_opt (fun (c : Config.t) -> c.Config.name = name) Config.all

let serve t =
  let pipe_r = fst t.pipe in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 32 in
  let conn_count = ref 0 in  (* open connections *)
  let inflight = ref 0 in  (* admitted-but-unfinished jobs *)
  (* futures of connections that died before their reply: still polled,
     so the in-flight gauge cannot leak *)
  let orphans = ref [] in
  let accepting = ref true in
  let drain_deadline = ref None in
  let close_conn c reason =
    if Hashtbl.mem conns c.fd then begin
      Hashtbl.remove conns c.fd;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      orphans := List.map (fun p -> p.p_future) c.pending @ !orphans;
      c.pending <- [];
      Metrics.incr (close_counter t reason);
      (* per-connection lifecycle span: accept to close *)
      Trace.emit ~cat:"net" ~name:"connection" ~ts_us:c.opened_us
        ~dur_us:(Trace.now_us () -. c.opened_us)
        ~args:[ ("close_reason", Trace.Str reason) ]
        ();
      decr conn_count;
      Metrics.set t.m_open_conns (float_of_int !conn_count)
    end
  in
  let shed c corr =
    Metrics.incr t.m_shed;
    Trace.instant ~cat:"net" "shed" ~args:[ ("corr", Trace.Int corr) ];
    enqueue t c
      (Frame.Reply_shed
         { sh_corr = corr; sh_retry_after_ms = t.cfg.retry_after_ms })
  in
  let handle_request c (rq : Frame.req) =
    Metrics.incr t.m_requests;
    match (find_attack rq.Frame.rq_attack, find_config rq.Frame.rq_config) with
    | None, _ ->
      enqueue t c
        (Frame.Reply_error
           {
             er_corr = rq.Frame.rq_corr;
             er_message = Fmt.str "unknown attack %S" rq.Frame.rq_attack;
           })
    | _, None ->
      enqueue t c
        (Frame.Reply_error
           {
             er_corr = rq.Frame.rq_corr;
             er_message = Fmt.str "unknown config %S" rq.Frame.rq_config;
           })
    | Some attack, Some config ->
      if !inflight >= t.cfg.max_inflight then
        shed c rq.Frame.rq_corr
      else begin
        (* the request deadline is honored but capped: a client cannot
           buy an unbounded interpreter run *)
        let max_steps =
          match rq.Frame.rq_max_steps with
          | Some s when s >= 1 -> min s t.cfg.max_steps_cap
          | _ -> t.cfg.max_steps_cap
        in
        (* A traced request gets a server-side request span: allocated
           here so the pool can parent its queue-wait/job spans under
           it, emitted retroactively when the reply resolves. *)
        let p_trace =
          match rq.Frame.rq_trace with
          | Some (tid, parent) when Switch.enabled () ->
            Some (tid, Trace.next_span_id (), parent)
          | _ -> None
        in
        let job =
          Service.job ?chaos_seed:rq.Frame.rq_chaos_seed ~max_steps
            ~sanitize:rq.Frame.rq_sanitize ~config
            ?trace:(Option.map (fun (tid, sid, _) -> (tid, sid)) p_trace)
            attack
        in
        (* clocked before submission: the queue-wait the pool attributes
           to this job starts inside [try_submit], and the request span
           must enclose it *)
        let p_t0 = Clock.now_ns () in
        match Service.try_submit ~notify:(fun () -> wake t) t.svc job with
        | None -> shed c rq.Frame.rq_corr
        | Some fut ->
          incr inflight;
          Metrics.set t.m_inflight (float_of_int !inflight);
          c.pending <-
            { p_corr = rq.Frame.rq_corr; p_future = fut; p_t0; p_trace }
            :: c.pending
      end
  in
  let decode_inbound c =
    let continue = ref (not c.draining) in
    while !continue do
      match Frame.decode c.rbuf with
      | Frame.Need _ -> continue := false
      | Frame.Msg (msg, used) ->
        c.rbuf <- String.sub c.rbuf used (String.length c.rbuf - used);
        Flight.note ~kind:"frame"
          [ ("dir", Jsonx.Str "in"); ("frame", Jsonx.Str (frame_kind msg)) ];
        (match msg with
        | Frame.Request rq -> handle_request c rq
        | Frame.Ping n -> enqueue t c (Frame.Pong n)
        | Frame.Stats_req n ->
          enqueue t c
            (Frame.Stats_rep { st_nonce = n; st_payload = stats_payload t })
        | Frame.Reply_ok _ | Frame.Reply_shed _ | Frame.Reply_error _
        | Frame.Pong _ | Frame.Stats_rep _ ->
          (* well-formed but nonsensical from a client: answer, then
             hang up — misdirected traffic is not a crash *)
          Metrics.incr (proto_counter t "unexpected-kind");
          enqueue t c
            (Frame.Reply_error
               { er_corr = 0; er_message = "unexpected frame kind" });
          c.draining <- true;
          c.close_reason <- "protocol-error";
          continue := false)
      | Frame.Fail e ->
        Metrics.incr (proto_counter t (Frame.error_class e));
        enqueue t c
          (Frame.Reply_error
             { er_corr = 0; er_message = Fmt.str "%a" Frame.pp_error e });
        (* no resync attempt: the stream is poisoned, drop it *)
        c.rbuf <- "";
        c.draining <- true;
        c.close_reason <- "protocol-error";
        continue := false
    done
  in
  let poll_pending c =
    let still = ref [] in
    List.iter
      (fun p ->
        match Pool.peek p.p_future with
        | None -> still := p :: !still
        | Some r ->
          decr inflight;
          Metrics.set t.m_inflight (float_of_int !inflight);
          let dur_us = Clock.elapsed_us ~a:p.p_t0 ~b:(Clock.now_ns ()) in
          (* the server-side request span, closed at reply time: queue
             wait + execution + the loop's own polling latency *)
          (match p.p_trace with
          | Some (tid, sid, parent) ->
            Trace.emit ~cat:"net" ~name:"request"
              ~ts_us:(Trace.us_of_ns p.p_t0) ~dur_us ~trace:(tid, sid, parent)
              ~args:[ ("corr", Trace.Int p.p_corr) ]
              ()
          | None -> ());
          (match r with
          | Ok reply ->
            Metrics.incr t.m_served;
            Metrics.observe t.m_request_us dur_us;
            enqueue t c
              (Frame.Reply_ok
                 { (Frame.rep_of_reply reply) with Frame.rp_corr = p.p_corr })
          | Error exn ->
            (* the driver classifies everything it can; an exception here
               is genuinely internal, and still answered *)
            Metrics.incr t.m_internal;
            enqueue t c
              (Frame.Reply_error
                 {
                   er_corr = p.p_corr;
                   er_message =
                     Fmt.str "internal: %s" (Printexc.to_string exn);
                 })))
      c.pending;
    c.pending <- !still
  in
  let flush_out c =
    try
      let progress = ref true in
      while (not (Queue.is_empty c.out)) && !progress do
        let head = Queue.peek c.out in
        let n =
          Unix.write c.fd
            (Bytes.unsafe_of_string head)
            c.woff
            (String.length head - c.woff)
        in
        c.woff <- c.woff + n;
        if c.woff >= String.length head then begin
          ignore (Queue.pop c.out);
          c.woff <- 0
        end
        else progress := false
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | Unix.Unix_error _ -> close_conn c "reset"
  in
  let accept_ready () =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true t.lsock with
      | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Metrics.incr t.m_accepts;
        Trace.instant ~cat:"net" "accept";
        Hashtbl.replace conns fd
          {
            fd;
            rbuf = "";
            out = Queue.create ();
            woff = 0;
            pending = [];
            last_activity = Unix.gettimeofday ();
            draining = false;
            close_reason = "eof";
            opened_us = Trace.now_us ();
          };
        incr conn_count;
        Metrics.set t.m_open_conns (float_of_int !conn_count);
        if !conn_count >= t.cfg.max_conns then continue := false
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
        ->
        continue := false
      | exception
          Unix.Unix_error
            ((Unix.EBADF | Unix.EINVAL | Unix.ENOTSOCK | Unix.EMFILE | Unix.ENFILE), _, _)
        ->
        (* EBADF/EINVAL/ENOTSOCK: the listener was closed (drain);
           EMFILE/ENFILE: out of descriptors — back off, existing
           connections still progress *)
        continue := false
    done
  in
  (* one read buffer per loop: a 64 KiB block goes straight to the major
     heap, and the bytes read are copied out before the next read *)
  let buf = Bytes.create 65536 in
  let read_ready c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
      (* peer finished sending; serve what is pending, then close *)
      if c.pending = [] && Queue.is_empty c.out then close_conn c "eof"
      else begin
        c.draining <- true;
        c.close_reason <- "eof"
      end
    | n ->
      c.last_activity <- Unix.gettimeofday ();
      c.rbuf <- c.rbuf ^ Bytes.sub_string buf 0 n;
      decode_inbound c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> close_conn c "reset"
  in
  let running = ref true in
  while !running do
    (* drain the wake pipe *)
    (try
       let b = Bytes.create 64 in
       while Unix.read pipe_r b 0 64 > 0 do
         ()
       done
     with Unix.Unix_error _ -> ());
    if Atomic.get t.stop_flag && !drain_deadline = None then begin
      accepting := false;
      Metrics.set t.m_draining 1.;
      (try Unix.close t.lsock with Unix.Unix_error _ -> ());
      drain_deadline :=
        Some (Unix.gettimeofday () +. t.cfg.drain_timeout_s);
      (* no new requests from open connections either *)
      Hashtbl.iter (fun _ c -> c.draining <- true;
                     if c.close_reason = "eof" then c.close_reason <- "drain")
        conns
    end;
    let now = Unix.gettimeofday () in
    (* reap idle connections: covers partial frames whose promised bytes
       never arrive *)
    let idle =
      Hashtbl.fold
        (fun _ c acc ->
          if
            c.pending = []
            && Queue.is_empty c.out
            && now -. c.last_activity > t.cfg.idle_timeout_s
          then c :: acc
          else acc)
        conns []
    in
    List.iter (fun c -> close_conn c "idle") idle;
    (* completions and flushes *)
    Hashtbl.iter (fun _ c -> if c.pending <> [] then poll_pending c) conns;
    Hashtbl.iter (fun _ c -> if not (Queue.is_empty c.out) then flush_out c) conns;
    Metrics.set t.m_queued_replies
      (float_of_int
         (Hashtbl.fold (fun _ c acc -> acc + Queue.length c.out) conns 0));
    let finished =
      Hashtbl.fold
        (fun _ c acc ->
          if c.draining && c.pending = [] && Queue.is_empty c.out then c :: acc
          else acc)
        conns []
    in
    List.iter (fun c -> close_conn c c.close_reason) finished;
    orphans :=
      List.filter
        (fun fut ->
          match Pool.peek fut with
          | None -> true
          | Some _ ->
            decr inflight;
            Metrics.set t.m_inflight (float_of_int !inflight);
            false)
        !orphans;
    (* drain exit waits until no admitted job is unfinished, so no worker
       ever fulfils into a dead loop *)
    (match !drain_deadline with
    | Some _ when Hashtbl.length conns = 0 && !orphans = [] && !inflight = 0 ->
      running := false
    | Some d when Unix.gettimeofday () > d ->
      (* deadline passed: force-close stragglers, but keep the loop until
         orphaned jobs finish *)
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.iter (fun c -> close_conn c "drain-forced");
      if !orphans = [] && !inflight = 0 then running := false
    | _ -> ());
    if !running then begin
      let rds =
        pipe_r
        :: (if !accepting && !conn_count < t.cfg.max_conns then
              [ t.lsock ]
            else [])
        @ Hashtbl.fold
            (fun fd c acc -> if c.draining then acc else fd :: acc)
            conns []
      in
      let wrs =
        Hashtbl.fold
          (fun fd c acc -> if Queue.is_empty c.out then acc else fd :: acc)
          conns []
      in
      match Unix.select rds wrs [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      | rready, wready, _ ->
        if !accepting && List.mem t.lsock rready then accept_ready ();
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> read_ready c
            | None -> ())
          rready;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> flush_out c
            | None -> ())
          wready
    end
  done;
  (* loop exit: everything the loop owned is closed and accounted *)
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close (snd t.pipe) with Unix.Unix_error _ -> ())

(* -- lifecycle ------------------------------------------------------- *)

let start ?(config = default_config) svc =
  (* a peer that resets mid-reply must surface as EPIPE on the write,
     not as a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock
    (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen lsock 128;
  Unix.set_nonblock lsock;
  let srv_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let log, recovered, torn_bytes, dup_entries, skipped_entries =
    match config.memo_log with
    | None -> (None, 0, 0, 0, 0)
    | Some path ->
      let o = Memolog.open_log path in
      let loaded = Service.preload_memo svc o.Memolog.entries in
      Service.set_memo_sink svc (Some (Memolog.append o.Memolog.log));
      ( Some o.Memolog.log,
        loaded,
        o.Memolog.torn_bytes,
        List.length o.Memolog.entries - loaded,
        o.Memolog.skipped )
  in
  let reg = Metrics.create () in
  (* Memo-recovery facts as gauges, so a scrape sees what the startup
     log line said: entries recovered, bytes truncated at the torn
     tail, duplicates a compaction would save, and records skipped for
     lack of a stable digest. *)
  if config.memo_log <> None then begin
    Metrics.set (Metrics.gauge reg "pna_net_memo_recovered_entries")
      (float_of_int recovered);
    Metrics.set (Metrics.gauge reg "pna_net_memo_torn_bytes")
      (float_of_int torn_bytes);
    Metrics.set (Metrics.gauge reg "pna_net_memo_dup_entries")
      (float_of_int dup_entries);
    Metrics.set (Metrics.gauge reg "pna_net_memo_skipped_entries")
      (float_of_int skipped_entries)
  end;
  let t =
    {
      cfg = config;
      svc;
      lsock;
      srv_port;
      pipe = (pipe_r, pipe_w);
      stop_flag = Atomic.make false;
      reg;
      m_accepts = Metrics.counter reg "pna_net_accepts_total";
      m_requests = Metrics.counter reg "pna_net_requests_total";
      m_served = Metrics.counter reg "pna_net_served_total";
      m_shed = Metrics.counter reg "pna_net_shed_total";
      m_internal = Metrics.counter reg "pna_net_internal_errors_total";
      m_request_us = Metrics.histogram reg "pna_net_request_us";
      m_open_conns = Metrics.gauge reg "pna_net_open_conns";
      m_inflight = Metrics.gauge reg "pna_net_inflight";
      m_draining = Metrics.gauge reg "pna_net_draining";
      m_queued_replies = Metrics.gauge reg "pna_net_queued_replies";
      log;
      recovered;
      torn_bytes;
      dup_entries;
      skipped_entries;
      loop = None;
    }
  in
  t.loop <- Some (Domain.spawn (fun () -> serve t));
  t

let stop t =
  Atomic.set t.stop_flag true;
  wake t;
  Option.iter Domain.join t.loop;
  t.loop <- None;
  (match t.log with
  | Some log ->
    Service.set_memo_sink t.svc None;
    Memolog.close log
  | None -> ())
