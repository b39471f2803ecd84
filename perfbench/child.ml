(* The `pna serve-tcp` child and the benchmark's side of the wire: a
   pipelined closed-loop driver over one connection, window-1 round
   trips, and the server's Prometheus snapshot. *)

module Frame = Pna_net.Frame
module Client = Pna_net.Client

type t = { pid : int; port : int; pid_s : string }

let live : int list ref = ref []

let kill_hard pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter kill_hard !live)

(* [serve-tcp -p 0] prints "pna: serving on HOST:PORT (...)" once it is
   listening; the child's stdout goes to [log] so a large drain dump can
   never block it on a full pipe. *)
let start ~pna ~log ~jobs ?corpus ?memo_log () =
  let args =
    [ pna; "serve-tcp"; "-p"; "0"; "--jobs"; string_of_int jobs; "--loops"; "1" ]
    @ (match corpus with Some p -> [ "--corpus"; p ] | None -> [])
    @ match memo_log with Some p -> [ "--memo-log"; p ] | None -> []
  in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process pna (Array.of_list args) devnull out devnull
  in
  Unix.close out;
  Unix.close devnull;
  live := pid :: !live;
  let deadline = Util.now () +. 60. in
  let rec wait () =
    let text = try Util.read_file log with Sys_error _ -> "" in
    let port =
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             try Scanf.sscanf l "pna: serving on %s@:%d " (fun _ p -> Some p)
             with _ -> None)
    in
    match port with
    | Some port -> { pid; port; pid_s = string_of_int pid }
    | None ->
      (match Unix.waitpid [ WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith (Fmt.str "server child exited early:\n%s" text));
      if Util.now () > deadline then failwith "server child never listened";
      Unix.sleepf 0.005;
      wait ()
  in
  wait ()

(* By the time a child is stopped the benchmark has read all it needs
   from it, so there is no drain to wait for. *)
let stop t =
  kill_hard t.pid;
  live := List.filter (( <> ) t.pid) !live

let connect t =
  match Client.connect ~timeout_s:30. ~host:"127.0.0.1" ~port:t.port () with
  | Ok c -> c
  | Error f -> failwith ("connect: " ^ Client.failure_label f)

(* -- the server's metrics snapshot -------------------------------------- *)

let stats_text c =
  match Client.stats c 1 with
  | Ok s -> s
  | Error f -> failwith ("stats: " ^ Client.failure_label f)

(* the value on the exposition line that starts with [series] *)
let prom text series =
  let n = String.length series in
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         if String.length l > n + 1 && String.sub l 0 n = series && l.[n] = ' '
         then float_of_string_opt (String.sub l (n + 1) (String.length l - n - 1))
         else None)
  |> Option.value ~default:0.

type server_stats = {
  hits : float;
  misses : float;
  loads : float;
  replicas : float;
  qwait_n : float;
  qwait_sum_us : float;
}

let server_stats c =
  let t = stats_text c in
  {
    hits = prom t {|pna_service_memo_total{result="hit"}|};
    misses = prom t {|pna_service_memo_total{result="miss"}|};
    loads = prom t {|pna_service_images_total{source="fresh_load"}|};
    replicas = prom t {|pna_service_images_total{source="replica_thaw"}|};
    qwait_n = prom t "pna_service_queue_wait_us_count";
    qwait_sum_us = prom t "pna_service_queue_wait_us_sum";
  }

let zip f a b =
  {
    hits = f a.hits b.hits;
    misses = f a.misses b.misses;
    loads = f a.loads b.loads;
    replicas = f a.replicas b.replicas;
    qwait_n = f a.qwait_n b.qwait_n;
    qwait_sum_us = f a.qwait_sum_us b.qwait_sum_us;
  }

let diff = zip ( -. )
let add = zip ( +. )
let zero = { hits = 0.; misses = 0.; loads = 0.; replicas = 0.; qwait_n = 0.; qwait_sum_us = 0. }

(* -- the pipelined closed loop ------------------------------------------ *)

type acc = {
  lat_ms : Util.samples;
  done_s : Util.samples;  (** completion times, seconds after [origin] *)
  mutable origin : float;
  mutable sent : int;
  mutable shed_replies : int;
  mutable failed : int;  (** shed after retries, rejected or lost *)
  replies : (string, string) Hashtbl.t;  (** key -> first reply signature *)
  mutable conflicts : int;  (** a key answered two different ways *)
}

let acc () =
  {
    lat_ms = Util.samples ();
    done_s = Util.samples ();
    origin = 0.;
    sent = 0;
    shed_replies = 0;
    failed = 0;
    replies = Hashtbl.create 256;
    conflicts = 0;
  }

let record a key s =
  match Hashtbl.find_opt a.replies key with
  | None -> Hashtbl.add a.replies key s
  | Some prior -> if prior <> s then a.conflicts <- a.conflicts + 1

(* fold the warm-up's replies into [a], so a key answered one way while
   warming and another while timed counts as a conflict *)
let absorb a warm = Hashtbl.iter (record a) warm.replies

let retry_shed = 3

type pending = { p_key : string; p_req : Frame.req; mutable p_t0 : float; mutable p_sheds : int }

(* Keep [window] requests outstanding on [c] until [next] runs dry or
   [deadline] passes, then drain. Every request ends served, shed after
   [retry_shed] re-tries, rejected, or lost with the connection. *)
let drive ~window ~deadline ~next c (a : acc) =
  let live : (int, pending) Hashtbl.t = Hashtbl.create 64 in
  let corr = ref 0 in
  let dead = ref false in
  let send p =
    incr corr;
    let req = { p.p_req with Frame.rq_corr = !corr land 0xffffffff } in
    p.p_t0 <- Util.now ();
    match Client.send_msg c (Frame.Request req) with
    | Ok () -> Hashtbl.replace live req.Frame.rq_corr p
    | Error _ ->
      a.failed <- a.failed + 1;
      dead := true
  in
  let exhausted = ref false in
  let rec fill () =
    if (not !dead) && (not !exhausted) && Hashtbl.length live < window then
      if Util.now () >= deadline then exhausted := true
      else
        match next () with
        | None -> exhausted := true
        | Some (key, req) ->
          a.sent <- a.sent + 1;
          send { p_key = key; p_req = req; p_t0 = 0.; p_sheds = 0 };
          fill ()
  in
  let take corr =
    match Hashtbl.find_opt live corr with
    | Some p ->
      Hashtbl.remove live corr;
      Some p
    | None -> None
  in
  fill ();
  while (not !dead) && Hashtbl.length live > 0 do
    (match Client.recv_msg c with
    | Error _ -> dead := true
    | Ok (Frame.Reply_ok rep) -> (
      match take rep.Frame.rp_corr with
      | None -> ()
      | Some p -> (
        let t = Util.now () in
        Util.push a.lat_ms ((t -. p.p_t0) *. 1e3);
        Util.push a.done_s (t -. a.origin);
        record a p.p_key (Pna_net.Loadgen.signature rep)))
    | Ok (Frame.Reply_shed { sh_corr; sh_retry_after_ms }) -> (
      match take sh_corr with
      | None -> ()
      | Some p ->
        a.shed_replies <- a.shed_replies + 1;
        if p.p_sheds >= retry_shed then a.failed <- a.failed + 1
        else begin
          p.p_sheds <- p.p_sheds + 1;
          Unix.sleepf (float_of_int (max 1 sh_retry_after_ms) /. 1000.);
          send p
        end)
    | Ok (Frame.Reply_error { er_corr; _ }) -> (
      match take er_corr with Some _ -> a.failed <- a.failed + 1 | None -> ())
    | Ok _ -> ());
    fill ()
  done;
  (* whatever is still outstanding went down with the connection *)
  a.failed <- a.failed + Hashtbl.length live

(* send→reply with nothing else in flight: [Some rep] when served, [None]
   when shed *)
let round_trip c req =
  match Client.send_msg c (Frame.Request req) with
  | Error f -> failwith ("send: " ^ Client.failure_label f)
  | Ok () -> (
    match Client.recv_msg c with
    | Ok (Frame.Reply_ok rep) -> Some rep
    | Ok (Frame.Reply_shed _) -> None
    | Ok _ -> failwith "round trip: unexpected reply"
    | Error f -> failwith ("recv: " ^ Client.failure_label f))
