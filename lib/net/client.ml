(** The protocol client: blocking sockets with receive timeouts, a
    retryable/terminal failure split, and seeded jittered exponential
    backoff in {!call}.

    A {!Pna_chaos.Chaos} engine can ride the send path: the engine's
    {!Pna_chaos.Chaos.on_send} script is executed against the real
    socket — partial writes with stalls between them, corrupted bytes,
    injected connection resets (SO_LINGER 0 abort, so the peer sees a
    hard RST, not a graceful FIN). That makes the client double as the
    fault-injection vehicle for the chaos-soak gate. *)

module Chaos = Pna_chaos.Chaos
module Metrics = Pna_telemetry.Metrics
module Trace = Pna_telemetry.Trace

(** Transport failures, classified for the retry loop. [Retryable]: the
    request may have been lost in flight and the service is memoized and
    deterministic, so re-sending is safe. [Terminal]: retrying cannot
    help (protocol breakdown, server-reported internal state). *)
type failure = Retryable of string | Terminal of string

let failure_label = function
  | Retryable m -> Fmt.str "retryable: %s" m
  | Terminal m -> Fmt.str "terminal: %s" m

(** What the server said, once transport succeeded. *)
type response =
  | Served of Frame.rep
  | Shed of int  (** retry-after hint, ms *)
  | Rejected of string  (** server-side [Reply_error] *)

exception Reset_injected

type t = {
  fd : Unix.file_descr;
  mutable rbuf : string;
  mutable alive : bool;
  chaos : Chaos.t option;
}

(* Registered eagerly: clients run on several domains at once (the load
   generator, the wire gate), and two domains forcing one lazy value at
   once raise [CamlinternalLazy.Undefined]. *)
let retries_total =
  Metrics.counter Metrics.default "pna_net_client_retries_total"

let giveups_total =
  Metrics.counter Metrics.default "pna_net_client_giveups_total"

let connect ?(timeout_s = 10.) ?chaos ~host ~port () =
  (* a server that resets us mid-send must surface as EPIPE, not as a
     process-killing SIGPIPE — on this side of the wire too *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       (* the server disables Nagle on accepted sockets but that does
          nothing for this direction: a pipelined client issues many
          small writes, and an un-ACKed segment held by Nagle waits on
          the peer's *delayed* ACK — a multi-millisecond p99 tail on
          requests that are sub-millisecond at p50 *)
       (try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Ok { fd; rbuf = ""; alive = true; chaos }
  | exception Unix.Unix_error (e, _, _) ->
    Error (Retryable (Fmt.str "connect: %s" (Unix.error_message e)))

(* Abort with RST rather than FIN: SO_LINGER 0 + close. *)
let abort t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.setsockopt_optint t.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let send_raw t data =
  match t.chaos with
  | None -> write_all t.fd data
  | Some eng ->
    List.iter
      (function
        | Chaos.Send s -> write_all t.fd s
        | Chaos.Delay_ms ms -> Unix.sleepf (float_of_int ms /. 1000.)
        | Chaos.Reset ->
          abort t;
          raise Reset_injected)
      (Chaos.on_send eng data)

let send_msg t msg =
  if not t.alive then Error (Retryable "connection is closed")
  else
    match send_raw t (Frame.encode msg) with
    | () -> Ok ()
    | exception Reset_injected ->
      Error (Retryable "injected connection reset")
    | exception Unix.Unix_error (e, _, _) ->
      abort t;
      Error (Retryable (Fmt.str "send: %s" (Unix.error_message e)))

(* Read until one whole frame decodes. The receive timeout turns a hung
   or silent server into a classified Retryable, never a stuck client. *)
let recv_msg t =
  if not t.alive then Error (Retryable "connection is closed")
  else begin
    let result = ref None in
    let buf = Bytes.create 65536 in
    while !result = None do
      match Frame.decode t.rbuf with
      | Frame.Msg (msg, used) ->
        t.rbuf <- String.sub t.rbuf used (String.length t.rbuf - used);
        result := Some (Ok msg)
      | Frame.Fail e ->
        abort t;
        result :=
          Some (Error (Terminal (Fmt.str "protocol: %a" Frame.pp_error e)))
      | Frame.Need _ -> (
        match Unix.read t.fd buf 0 (Bytes.length buf) with
        | 0 ->
          close t;
          result := Some (Error (Retryable "server closed the connection"))
        | n -> t.rbuf <- t.rbuf ^ Bytes.sub_string buf 0 n
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          abort t;
          result := Some (Error (Retryable "receive timeout"))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (e, _, _) ->
          abort t;
          result :=
            Some (Error (Retryable (Fmt.str "recv: %s" (Unix.error_message e)))))
    done;
    Option.get !result
  end

(* One request/reply exchange on an open connection. Stray replies with
   a different correlation id (left over from a pipelined predecessor)
   are skipped, as are Pongs. *)
let request t (rq : Frame.req) =
  (* inside an ambient trace and not explicitly traced already: stamp
     the wire context so the server's spans link under the caller's *)
  let rq =
    match (rq.Frame.rq_trace, Trace.wire_ctx ()) with
    | None, Some wire -> { rq with Frame.rq_trace = Some wire }
    | _ -> rq
  in
  match send_msg t (Frame.Request rq) with
  | Error _ as e -> e
  | Ok () ->
    let rec await () =
      match recv_msg t with
      | Error _ as e -> e
      | Ok (Frame.Reply_ok rep) when rep.Frame.rp_corr = rq.Frame.rq_corr ->
        Ok (Served rep)
      | Ok (Frame.Reply_shed { sh_corr; sh_retry_after_ms })
        when sh_corr = rq.Frame.rq_corr ->
        Ok (Shed sh_retry_after_ms)
      | Ok (Frame.Reply_error { er_corr; er_message }) ->
        (* correlated or corr=0 (the server could not attribute it):
           either way this request is not getting an answer *)
        if er_corr = rq.Frame.rq_corr || er_corr = 0 then
          Ok (Rejected er_message)
        else await ()
      | Ok _ -> await ()
    in
    await ()

let ping t nonce =
  match send_msg t (Frame.Ping nonce) with
  | Error _ as e -> e
  | Ok () -> (
    let rec await () =
      match recv_msg t with
      | Error _ as e -> e
      | Ok (Frame.Pong n) when n = nonce -> Ok ()
      | Ok _ -> await ()
    in
    await ())

let stats t nonce =
  match send_msg t (Frame.Stats_req nonce) with
  | Error _ as e -> e
  | Ok () -> (
    let rec await () =
      match recv_msg t with
      | Error _ as e -> e
      | Ok (Frame.Stats_rep { st_nonce; st_payload }) when st_nonce = nonce ->
        Ok st_payload
      | Ok _ -> await ()
    in
    await ())

(* -- the retrying one-shot call -------------------------------------- *)

(* Jittered exponential backoff: base * 2^(attempt-1) plus up to
   [jitter_pct] percent, drawn from a caller-seeded SplitMix64 stream so
   tests replay. Sleeps are real (this side of the wire is wall-clock). *)
let backoff_ms ~rng ~base_ms ~jitter_pct attempt =
  let base = base_ms * (1 lsl min (attempt - 1) 16) in
  if jitter_pct <= 0 then base
  else base + Pna_rand.Rand.int rng (1 + (base * jitter_pct / 100))

let call ?(attempts = 4) ?(base_ms = 1) ?(jitter_pct = 50) ?(seed = 0)
    ?(timeout_s = 10.) ?chaos ~host ~port (rq : Frame.req) =
  let rng = Pna_rand.Rand.create (seed lxor 0xca11ba5e) in
  let rec go attempt =
    let retry reason =
      if attempt >= attempts then begin
        Metrics.incr giveups_total;
        Error (Retryable reason)
      end
      else begin
        Metrics.incr retries_total;
        Unix.sleepf
          (float_of_int (backoff_ms ~rng ~base_ms ~jitter_pct attempt)
          /. 1000.);
        go (attempt + 1)
      end
    in
    match connect ?chaos ~timeout_s ~host ~port () with
    | Error (Retryable m) -> retry m
    | Error (Terminal _ as f) -> Error f
    | Ok conn -> (
      let r = request conn rq in
      (match r with Ok _ -> close conn | Error _ -> ());
      match r with
      | Ok (Shed ms) ->
        if attempt >= attempts then begin
          Metrics.incr giveups_total;
          Ok (Shed ms)
        end
        else begin
          Metrics.incr retries_total;
          Unix.sleepf (float_of_int (max ms 1) /. 1000.);
          go (attempt + 1)
        end
      | Ok _ as ok -> ok
      | Error (Retryable m) -> retry m
      | Error (Terminal _ as f) -> Error f)
  in
  go 1
