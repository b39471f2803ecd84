(** The load generator: pipelined request streams over parallel
    connections, with full per-request accounting.

    Every request ends in exactly one bucket — served, shed (after
    bounded re-tries), rejected (classified server error) or hung
    (watchdog expiry, which the E16 gate requires to be zero) — so
    [lg_served + lg_shed + lg_rejected + lg_hung = n] by construction.
    Latency percentiles are computed over served requests only.

    Under [~chaos], each connection runs a {!Pna_chaos.Chaos} engine
    with socket faults ([Plan.generate ~sock:true]) on its send path and
    rotates to a fresh seeded plan as engines exhaust, keeping fault
    pressure up for the whole soak. Transport failures re-send the
    outstanding window on a fresh connection — safe, because the service
    is memoized and deterministic. *)

module Chaos = Pna_chaos.Chaos
module Plan = Pna_chaos.Plan
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Clock = Pna_telemetry.Clock
module Trace = Pna_telemetry.Trace
module Switch = Pna_telemetry.Switch

type spec = {
  s_attack : string;
  s_config : string;
  s_chaos_seed : int option;
  s_max_steps : int option;
}

let spec_key s =
  Fmt.str "%s|%s|%a" s.s_attack s.s_config
    Fmt.(option ~none:(any "-") int)
    s.s_chaos_seed

(* A deterministic pool of distinct request specs over the catalogue —
   the verdict-equivalence half of E16 re-runs exactly these in process
   and compares signatures. *)
(* the same per-request step budget the E12 stream uses: big enough that
   every scenario reaches its natural verdict, small enough that a cold
   compute never masquerades as a hung connection *)
let default_max_steps = 60_000

let specs ?(distinct = 48) ?(chaos_every = 6) ?(max_steps = default_max_steps)
    ?targets ~seed () =
  let module R = Pna_rand.Rand in
  (* the shared RNG's [int] is rejection-sampled, so the pick over the
     target pool is exactly uniform (and the stream a pure function of
     [seed]) even when the pool size is not a power of two — a corpus of
     e.g. 1000 generated scenarios gets no modulo skew towards its low
     indices *)
  let rng = R.create (seed lxor 0x10ad5eed) in
  let targets =
    match targets with
    | Some (_ :: _ as ids) -> Array.of_list ids
    | Some [] | None ->
      Array.of_list (List.map (fun a -> a.Catalog.id) All.attacks)
  in
  let configs = Array.of_list Config.all in
  Array.init distinct (fun i ->
      {
        s_attack = R.pick rng targets;
        s_config = (R.pick rng configs).Config.name;
        s_chaos_seed =
          (if chaos_every > 0 && i mod chaos_every = chaos_every - 1 then
             Some (1 + R.int rng 1000)
           else None);
        s_max_steps = Some max_steps;
      })

let req_of_spec ?trace ~corr s =
  {
    Frame.rq_corr = corr land 0xffffffff;
    rq_attack = s.s_attack;
    rq_config = s.s_config;
    rq_chaos_seed = s.s_chaos_seed;
    rq_max_steps = s.s_max_steps;
    rq_sanitize = false;
    rq_engine = `Bytecode;
    rq_trace = trace;
  }

let signature (r : Frame.rep) =
  Fmt.str "%s|%s|%a|%s|%b|%s|%d|%d" r.Frame.rp_id r.Frame.rp_config
    Fmt.(option ~none:(any "-") int)
    r.Frame.rp_chaos_seed r.Frame.rp_status r.Frame.rp_success
    r.Frame.rp_detail r.Frame.rp_attempts r.Frame.rp_violations

type result = {
  lg_n : int;
  lg_conns : int;
  lg_served : int;
  lg_shed_final : int;  (** still shed after [retry_shed] re-tries *)
  lg_shed_retried : int;  (** shed replies that were retried *)
  lg_rejected : (string * int) list;  (** classified server errors *)
  lg_hung : int;  (** watchdog expiries — the gate requires 0 *)
  lg_reconnects : int;
  lg_p50_us : float;
  lg_p99_us : float;
  lg_p999_us : float;
  lg_mean_us : float;
  lg_seconds : float;
  lg_samples : (string * string) list;
      (** distinct spec key -> reply signature (first seen) *)
  lg_sig_conflicts : int;
      (** same spec answered with different signatures — the gate
          requires 0 *)
  lg_traced : int;
      (** sampled requests that carried a wire trace context and came
          back served — each contributes one client root span *)
}

let pp ppf r =
  Fmt.pf ppf
    "@[<v>%d requests over %d conns in %.2fs (%.0f/s)@,\
     served %d  shed %d (retried %d)  rejected %d  hung %d  reconnects %d@,\
     latency us: p50 %.0f  p99 %.0f  p99.9 %.0f  mean %.0f@,\
     %d distinct specs sampled, %d signature conflicts%a@]"
    r.lg_n r.lg_conns r.lg_seconds
    (float_of_int r.lg_n /. Float.max 1e-9 r.lg_seconds)
    r.lg_served r.lg_shed_final r.lg_shed_retried
    (List.fold_left (fun a (_, n) -> a + n) 0 r.lg_rejected)
    r.lg_hung r.lg_reconnects r.lg_p50_us r.lg_p99_us r.lg_p999_us
    r.lg_mean_us
    (List.length r.lg_samples)
    r.lg_sig_conflicts
    (fun ppf n -> if n > 0 then Fmt.pf ppf "@,%d requests wire-traced" n)
    r.lg_traced

(* -- per-domain worker ---------------------------------------------- *)

type outstanding = {
  o_idx : int;  (** global request index *)
  o_spec : spec;
  mutable o_t0 : int64;  (** latency clock, restarted on re-send *)
  mutable o_sheds : int;
  mutable o_strikes : int;  (** transport failures seen by this request *)
  o_trace : (int * int) option;
      (** sampled: (trace id, client root span id) sent on the wire so
          the server parents its request span under ours *)
}

type acc = {
  mutable a_served : int;
  mutable a_shed_final : int;
  mutable a_shed_retried : int;
  a_rejected : (string, int) Hashtbl.t;
  mutable a_hung : int;
  mutable a_reconnects : int;
  mutable a_lat : float array;
  mutable a_lat_n : int;
  a_samples : (string, string) Hashtbl.t;
  mutable a_conflicts : int;
  mutable a_traced : int;
}

let mk_acc () =
  {
    a_served = 0;
    a_shed_final = 0;
    a_shed_retried = 0;
    a_rejected = Hashtbl.create 8;
    a_hung = 0;
    a_reconnects = 0;
    a_lat = Array.make 1024 0.;
    a_lat_n = 0;
    a_samples = Hashtbl.create 64;
    a_conflicts = 0;
    a_traced = 0;
  }

let push_lat acc v =
  if acc.a_lat_n >= Array.length acc.a_lat then begin
    let bigger = Array.make (2 * Array.length acc.a_lat) 0. in
    Array.blit acc.a_lat 0 bigger 0 acc.a_lat_n;
    acc.a_lat <- bigger
  end;
  acc.a_lat.(acc.a_lat_n) <- v;
  acc.a_lat_n <- acc.a_lat_n + 1

let classify_rejection acc msg =
  (* fold server messages onto a small stable label set *)
  let label =
    if String.length msg >= 7 && String.sub msg 0 7 = "unknown" then
      "unknown-target"
    else if String.length msg >= 9 && String.sub msg 0 9 = "internal:" then
      "internal"
    else "protocol"
  in
  Hashtbl.replace acc.a_rejected label
    (1 + Option.value ~default:0 (Hashtbl.find_opt acc.a_rejected label))

let record_sample acc key sig_ =
  match Hashtbl.find_opt acc.a_samples key with
  | None -> Hashtbl.add acc.a_samples key sig_
  | Some prior -> if prior <> sig_ then acc.a_conflicts <- acc.a_conflicts + 1

(* strikes a request survives before the watchdog calls it hung: each
   strike already implied a receive timeout or reconnect *)
let max_strikes = 5

(* Request lifecycle inside a worker: indices wait in [todo] (not yet
   materialized), outstandings needing a (re)send wait in [resend], sent
   ones sit in [live] keyed by correlation id until a reply resolves
   them. Every transport failure kills the connection ([conn := None])
   so the next loop turn reconnects — a dead socket can never spin with
   an empty window. *)
let worker ~host ~port ~timeout_s ~window ~retry_shed ~chaos ~seed
    ~sample_every ~(specs : spec array) ~indices () =
  let acc = mk_acc () in
  let eng_seed = ref (1000 * (seed + 1)) in
  let fresh_chaos () =
    if not chaos then None
    else begin
      incr eng_seed;
      Some (Chaos.create (Plan.generate ~sock:true ~seed:!eng_seed ()))
    end
  in
  let conn = ref None in
  let rec connect_retry k =
    match Client.connect ?chaos:(fresh_chaos ()) ~timeout_s ~host ~port () with
    | Ok c -> Some c
    | Error _ when k < 50 ->
      Unix.sleepf 0.02;
      connect_retry (k + 1)
    | Error _ -> None
  in
  let todo = Queue.create () in
  List.iter (fun i -> Queue.add i todo) indices;
  (* chaos engines are one-shot plans with fault targets in the first
     couple dozen sends; rotating to a fresh connection (and plan) every
     64 resolved requests keeps fault pressure up for the whole soak *)
  let rotate_every = if chaos then 64 else max_int in
  let resolved = ref 0 in
  let resend : outstanding Queue.t = Queue.create () in
  let live : (int, outstanding) Hashtbl.t = Hashtbl.create 64 in
  let corr = ref 0 in
  let resolve_hung _o = acc.a_hung <- acc.a_hung + 1 in
  let drop_conn () =
    (match !conn with Some c -> Client.abort c | None -> ());
    conn := None
  in
  (* strike an outstanding request; repeat offenders resolve as hung
     instead of looping forever *)
  let strike o =
    o.o_strikes <- o.o_strikes + 1;
    if o.o_strikes >= max_strikes then resolve_hung o else Queue.add o resend
  in
  let next_out () =
    if Queue.length resend > 0 then Some (Queue.pop resend)
    else if Queue.length todo > 0 then begin
      let i = Queue.pop todo in
      (* every [sample_every]-th request gets its own wire trace: a
         fresh trace id plus the client root span the server will
         parent its request span under *)
      let trace =
        if sample_every > 0 && i mod sample_every = 0 && Switch.enabled ()
        then Some (Trace.next_span_id (), Trace.next_span_id ())
        else None
      in
      Some
        {
          o_idx = i;
          o_spec = specs.(i mod Array.length specs);
          o_t0 = Clock.now_ns ();
          o_sheds = 0;
          o_strikes = 0;
          o_trace = trace;
        }
    end
    else None
  in
  let send_one c o =
    incr corr;
    o.o_t0 <- Clock.now_ns ();
    match
      Client.send_msg c
        (Frame.Request (req_of_spec ?trace:o.o_trace ~corr:!corr o.o_spec))
    with
    | Ok () ->
      Hashtbl.replace live !corr o;
      true
    | Error _ ->
      strike o;
      drop_conn ();
      false
  in
  let connected_once = ref false in
  let reconnect () =
    if !connected_once then acc.a_reconnects <- acc.a_reconnects + 1;
    drop_conn ();
    (* everything in flight on the dead socket goes back through the
       resend queue, one strike heavier *)
    let outstanding = Hashtbl.fold (fun _ o l -> o :: l) live [] in
    Hashtbl.reset live;
    List.iter strike outstanding;
    match connect_retry 0 with
    | None ->
      (* connection refused repeatedly: everything left is hung *)
      Queue.iter resolve_hung resend;
      Queue.clear resend;
      Queue.iter (fun _ -> acc.a_hung <- acc.a_hung + 1) todo;
      Queue.clear todo;
      false
    | Some c ->
      connected_once := true;
      conn := Some c;
      true
  in
  let handle_reply msg =
    let pop corr_id =
      match Hashtbl.find_opt live corr_id with
      | None -> None
      | Some o ->
        Hashtbl.remove live corr_id;
        Some o
    in
    match msg with
    | Frame.Reply_ok rep -> (
      match pop rep.Frame.rp_corr with
      | None -> ()
      | Some o ->
        incr resolved;
        acc.a_served <- acc.a_served + 1;
        let now = Clock.now_ns () in
        push_lat acc (Clock.elapsed_us ~a:o.o_t0 ~b:now);
        (match o.o_trace with
        | Some (tid, root) ->
          (* the client root span, emitted retroactively over the
             request's last send-to-reply extent *)
          acc.a_traced <- acc.a_traced + 1;
          Trace.emit ~cat:"net" ~name:"client-request"
            ~ts_us:(Trace.us_of_ns o.o_t0)
            ~dur_us:(Clock.elapsed_us ~a:o.o_t0 ~b:now)
            ~trace:(tid, root, 0)
            ~args:[ ("target", Trace.Str o.o_spec.s_attack) ]
            ()
        | None -> ());
        record_sample acc (spec_key o.o_spec) (signature rep))
    | Frame.Reply_shed { sh_corr; sh_retry_after_ms } -> (
      match pop sh_corr with
      | None -> ()
      | Some o ->
        if o.o_sheds >= retry_shed then begin
          incr resolved;
          acc.a_shed_final <- acc.a_shed_final + 1
        end
        else begin
          o.o_sheds <- o.o_sheds + 1;
          acc.a_shed_retried <- acc.a_shed_retried + 1;
          Unix.sleepf (float_of_int (max 1 sh_retry_after_ms) /. 1000.);
          Queue.add o resend
        end)
    | Frame.Reply_error { er_corr; er_message } -> (
      match pop er_corr with
      | Some _ ->
        incr resolved;
        classify_rejection acc er_message
      | None ->
        (* corr=0 or unknown: the server is tearing this connection down;
           the in-flight window will resurface via reconnect *)
        ())
    | Frame.Request _ | Frame.Ping _ | Frame.Pong _ | Frame.Stats_req _
    | Frame.Stats_rep _ ->
      ()
  in
  let progress () =
    Queue.length todo > 0 || Queue.length resend > 0 || Hashtbl.length live > 0
  in
  while progress () do
    if !conn = None then ignore (reconnect ());
    match !conn with
    | None -> () (* reconnect gave up and already resolved everything *)
    | Some c when !resolved >= rotate_every && Hashtbl.length live = 0 ->
      (* rotate: clean close, fresh connection and fault plan next turn *)
      Client.close c;
      conn := None;
      resolved := 0
    | Some c ->
      (* top up the window — unless a rotation is pending, in which case
         drain what is in flight first; a failed send drops the
         connection and breaks out so the next turn reconnects *)
      let filling = ref (!resolved < rotate_every) in
      while !filling && Hashtbl.length live < window do
        match next_out () with
        | None -> filling := false
        | Some o -> filling := send_one c o
      done;
      if Hashtbl.length live > 0 then begin
        match !conn with
        | None -> ()
        | Some c -> (
          match Client.recv_msg c with
          | Ok msg -> handle_reply msg
          | Error _ -> drop_conn ())
      end
  done;
  (match !conn with Some c -> Client.close c | None -> ());
  acc

(* -- merge + percentiles -------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.of_int n *. p)))

let run ?(conns = 4) ?(window = 32) ?(retry_shed = 3) ?(chaos = false)
    ?(timeout_s = 10.) ?max_steps ?(distinct = 48) ?(sample_every = 0) ?targets
    ~host ~port ~n ~seed () =
  let specs = specs ~distinct ?max_steps ?targets ~seed () in
  let conns = max 1 (min conns n) in
  let indices =
    List.init conns (fun d ->
        List.init ((n - d + conns - 1) / conns) (fun k -> d + (k * conns)))
  in
  let t0 = Clock.now_ns () in
  let domains =
    List.mapi
      (fun d idx ->
        Domain.spawn
          (worker ~host ~port ~timeout_s ~window ~retry_shed ~chaos
             ~seed:((seed * 131) + d) ~sample_every ~specs ~indices:idx))
      indices
  in
  let accs = List.map Domain.join domains in
  let seconds = Clock.elapsed_s ~a:t0 ~b:(Clock.now_ns ()) in
  let total f = List.fold_left (fun a x -> a + f x) 0 accs in
  let lat =
    Array.concat (List.map (fun a -> Array.sub a.a_lat 0 a.a_lat_n) accs)
  in
  Array.sort compare lat;
  let rejected = Hashtbl.create 8 in
  let samples = Hashtbl.create 64 in
  let conflicts = ref (total (fun a -> a.a_conflicts)) in
  List.iter
    (fun a ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace rejected k
            (v + Option.value ~default:0 (Hashtbl.find_opt rejected k)))
        a.a_rejected;
      Hashtbl.iter
        (fun k s ->
          match Hashtbl.find_opt samples k with
          | None -> Hashtbl.add samples k s
          | Some prior -> if prior <> s then incr conflicts)
        a.a_samples)
    accs;
  let mean =
    if Array.length lat = 0 then 0.
    else Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat)
  in
  {
    lg_n = n;
    lg_conns = conns;
    lg_served = total (fun a -> a.a_served);
    lg_shed_final = total (fun a -> a.a_shed_final);
    lg_shed_retried = total (fun a -> a.a_shed_retried);
    lg_rejected =
      Hashtbl.fold (fun k v l -> (k, v) :: l) rejected [] |> List.sort compare;
    lg_hung = total (fun a -> a.a_hung);
    lg_reconnects = total (fun a -> a.a_reconnects);
    lg_p50_us = percentile lat 0.50;
    lg_p99_us = percentile lat 0.99;
    lg_p999_us = percentile lat 0.999;
    lg_mean_us = mean;
    lg_seconds = seconds;
    lg_samples =
      Hashtbl.fold (fun k s l -> (k, s) :: l) samples [] |> List.sort compare;
    lg_sig_conflicts = !conflicts;
    lg_traced = total (fun a -> a.a_traced);
  }
