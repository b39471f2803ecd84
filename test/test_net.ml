(* Tests for the TCP front end: frame codec totality, memo-log
   crash-safety, server lifecycle over loopback, client retry
   classification and a miniature chaos soak. *)

module Frame = Pna_net.Frame
module Memolog = Pna_net.Memolog
module Server = Pna_net.Server
module Client = Pna_net.Client
module Loadgen = Pna_net.Loadgen
module Service = Pna_service.Service
module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Telemetry = Pna_telemetry.Telemetry
module Trace = Pna_telemetry.Trace
module E = Pna.Experiments

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- frame codec: round-trip ---- *)

let msg_equal a b = a = b

let gen_msg : Frame.msg QCheck.Gen.t =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_bound 40) in
  let corr = int_bound 0xffffff in
  oneof
    [
      (let* rq_corr = corr
       and* rq_attack = str
       and* rq_config = str
       and* rq_chaos_seed = opt (int_bound 1000)
       and* rq_max_steps = opt (int_range 1 2_000_000)
       and* rq_sanitize = bool
       and* rq_trace =
         opt (pair (int_range 1 0x3fffffff) (int_range 1 0x3fffffff))
       in
       return
         (Frame.Request
            { rq_corr; rq_attack; rq_config; rq_chaos_seed; rq_max_steps;
              rq_sanitize; rq_engine = `Bytecode; rq_trace }));
      (let* rp_corr = corr
       and* rp_id = str
       and* rp_config = str
       and* rp_chaos_seed = opt (int_bound 1000)
       and* rp_status = str
       and* rp_success = bool
       and* rp_detail = str
       and* rp_attempts = int_bound 100
       and* rp_cached = bool
       and* rp_violations = int_bound 1000 in
       return
         (Frame.Reply_ok
            { rp_corr; rp_id; rp_config; rp_chaos_seed; rp_status; rp_success;
              rp_detail; rp_attempts; rp_cached; rp_violations }));
      (let* sh_corr = corr and* sh_retry_after_ms = int_bound 10_000 in
       return (Frame.Reply_shed { sh_corr; sh_retry_after_ms }));
      (let* er_corr = corr and* er_message = str in
       return (Frame.Reply_error { er_corr; er_message }));
      (let* n = int_bound 0xffffff in
       return (Frame.Ping n));
      (let* n = int_bound 0xffffff in
       return (Frame.Pong n));
      (let* n = int_bound 0xffffff in
       return (Frame.Stats_req n));
      (let* st_nonce = int_bound 0xffffff and* st_payload = str in
       return (Frame.Stats_rep { st_nonce; st_payload }));
    ]

let arb_msg = QCheck.make ~print:(fun _ -> "<msg>") gen_msg

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"frame: encode/decode round-trip" arb_msg
    (fun msg ->
      let s = Frame.encode msg in
      match Frame.decode s with
      | Frame.Msg (msg', used) -> used = String.length s && msg_equal msg msg'
      | Frame.Need _ | Frame.Fail _ -> false)

(* decode never raises and always makes a classifiable statement, no
   matter how the frame is mangled *)
let classified s =
  match Frame.decode s with
  | Frame.Msg (_, used) -> used > 0
  | Frame.Need n -> n > 0
  | Frame.Fail e -> String.length (Frame.error_class e) > 0
  | exception e ->
    Alcotest.failf "decode raised %s" (Printexc.to_string e)

let prop_bitflip_classified =
  QCheck.Test.make ~count:500
    ~name:"frame: bit flips always classified, never an exception"
    QCheck.(triple arb_msg (int_bound 10_000) (int_range 0 7))
    (fun (msg, pos, bit) ->
      let s = Bytes.of_string (Frame.encode msg) in
      let i = pos mod Bytes.length s in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl bit)));
      let s = Bytes.to_string s in
      (* a single flipped bit can never still decode as the same bytes:
         either an earlier header check rejects it, the CRC catches it,
         the payload parser rejects it, or the length field now promises
         different bytes (Need) *)
      classified s
      &&
      match Frame.decode s with
      | Frame.Msg (_, used) -> used <> String.length s
      | Frame.Need _ | Frame.Fail _ -> true)

let prop_truncation_classified =
  QCheck.Test.make ~count:500
    ~name:"frame: truncations ask for more bytes, never an exception"
    QCheck.(pair arb_msg (int_bound 10_000))
    (fun (msg, cut) ->
      let s = Frame.encode msg in
      let keep = cut mod String.length s in
      let s = String.sub s 0 keep in
      classified s
      &&
      match Frame.decode s with
      | Frame.Need n -> n > 0
      | Frame.Msg _ -> false
      | Frame.Fail _ -> false)

let prop_oversize_classified =
  QCheck.Test.make ~count:100
    ~name:"frame: an inflated length field fails fast (no hang, no hoard)"
    arb_msg
    (fun msg ->
      let b = Bytes.of_string (Frame.encode msg) in
      (* declare ~2G of payload; decode must reject on the spot instead
         of returning Need and parking the connection forever *)
      Bytes.set b 8 '\xff';
      Bytes.set b 9 '\xff';
      Bytes.set b 10 '\xff';
      Bytes.set b 11 '\x7f';
      match Frame.decode (Bytes.to_string b) with
      | Frame.Fail (Frame.Oversize _) -> true
      | _ -> false)

let test_stream_decode () =
  let msgs =
    [
      Frame.Ping 1;
      Frame.Reply_shed { sh_corr = 2; sh_retry_after_ms = 25 };
      Frame.Reply_error { er_corr = 0; er_message = "nope" };
      Frame.Pong 3;
    ]
  in
  let stream = String.concat "" (List.map Frame.encode msgs) in
  let rec consume off acc =
    if off >= String.length stream then List.rev acc
    else
      match Frame.decode ~off stream with
      | Frame.Msg (m, used) -> consume (off + used) (m :: acc)
      | _ -> Alcotest.fail "stream decode stalled"
  in
  Alcotest.(check int) "all frames recovered" (List.length msgs)
    (List.length (consume 0 []));
  Alcotest.(check bool) "order preserved" true (consume 0 [] = msgs)

let test_garbage_prefix () =
  (* wrong magic classified immediately, not mistaken for a short read *)
  match Frame.decode "XXXXXXXXXXXXXXXXXXXX" with
  | Frame.Fail e -> Alcotest.(check string) "class" "magic" (Frame.error_class e)
  | _ -> Alcotest.fail "garbage accepted"

(* ---- wire versioning: v2 is strictly additive ---- *)

let version_byte m = Char.code (Frame.encode m).[4]

let test_frame_versioning () =
  let req trace =
    Frame.Request
      {
        Frame.rq_corr = 1;
        rq_attack = "overflow-vptr";
        rq_config = "none";
        rq_chaos_seed = None;
        rq_max_steps = None;
        rq_sanitize = false;
        rq_engine = `Bytecode;
        rq_trace = trace;
      }
  in
  (* everything a v1 peer can say still carries the v1 version byte, so
     an old decoder keeps accepting traffic from a new process *)
  let legacy =
    [
      req None;
      Frame.Reply_ok
        {
          rp_corr = 1; rp_id = "overflow-vptr"; rp_config = "none";
          rp_chaos_seed = None; rp_status = "exited 0"; rp_success = true;
          rp_detail = ""; rp_attempts = 1; rp_cached = false;
          rp_violations = 0;
        };
      Frame.Reply_shed { sh_corr = 1; sh_retry_after_ms = 5 };
      Frame.Reply_error { er_corr = 0; er_message = "m" };
      Frame.Ping 1;
      Frame.Pong 2;
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check int) "legacy frame stamped v1" 1 (version_byte m);
      match Frame.decode (Frame.encode m) with
      | Frame.Msg (m', _) -> Alcotest.(check bool) "v1 round-trip" true (m = m')
      | _ -> Alcotest.fail "legacy frame failed to decode")
    legacy;
  (* only frames that actually use a v2 feature pay the version bump *)
  let v2 =
    [
      req (Some (0xabc, 0xdef));
      Frame.Stats_req 3;
      Frame.Stats_rep { st_nonce = 3; st_payload = "pna_up 1\n" };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check int) "v2 feature stamped v2" 2 (version_byte m);
      match Frame.decode (Frame.encode m) with
      | Frame.Msg (m', _) -> Alcotest.(check bool) "v2 round-trip" true (m = m')
      | _ -> Alcotest.fail "v2 frame failed to decode")
    v2

(* ---- memo-entry codec + memo log ---- *)

let mk_entry ?(attack = "overflow-vptr") ?(config = "none") ?(seed = None)
    ?(hash = 0x1234) ?(engine = "bytecode") () =
  {
    Service.me_attack = attack;
    me_config = config;
    me_chaos_seed = seed;
    me_input_hash = hash;
    me_sanitize = false;
    me_engine = engine;
    me_reply =
      {
        Service.r_id = attack;
        r_config = config;
        r_chaos_seed = seed;
        r_status = "exited 0";
        r_success = true;
        r_detail = "hijacked";
        r_attempts = 1;
        r_cached = false;
        r_violations = 0;
      };
  }

let test_memo_entry_roundtrip () =
  let e = mk_entry ~seed:(Some 7) ~hash:(-42) () in
  match Frame.decode_memo_entry (Frame.encode_memo_entry e) with
  | Ok (e', stable) ->
    Alcotest.(check bool) "round-trip" true (e = e');
    Alcotest.(check bool) "marked as a stable digest" true stable
  | Error m -> Alcotest.failf "decode_memo_entry: %s" m

(* A record as written before the stable request digest existed: the
   same bytes with flag bit 32 clear. The flags byte follows the two
   length-prefixed strings. *)
let legacy_record (e : Service.memo_entry) =
  let b = Bytes.of_string (Frame.encode_memo_entry e) in
  let off =
    2 + String.length e.Service.me_attack + 2 + String.length e.Service.me_config
  in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) land lnot 32));
  Bytes.to_string b

let with_tmp f =
  let path = Filename.temp_file "pna_memolog" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let append_raw path bytes =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc bytes;
  close_out oc

let test_memolog_roundtrip () =
  with_tmp @@ fun path ->
  let o = Memolog.open_log path in
  Alcotest.(check int) "fresh log empty" 0 (List.length o.Memolog.entries);
  List.iter
    (Memolog.append o.Memolog.log)
    [ mk_entry (); mk_entry ~attack:"dangling-read" ~hash:9 () ];
  Memolog.close o.Memolog.log;
  let o2 = Memolog.open_log path in
  Memolog.close o2.Memolog.log;
  Alcotest.(check int) "both records recovered" 2
    (List.length o2.Memolog.entries);
  Alcotest.(check int) "clean tail" 0 o2.Memolog.torn_bytes

let test_memolog_torn_tail () =
  with_tmp @@ fun path ->
  let o = Memolog.open_log path in
  List.iter (Memolog.append o.Memolog.log) [ mk_entry (); mk_entry ~hash:5 () ];
  Memolog.close o.Memolog.log;
  let good_len = (Unix.stat path).Unix.st_size in
  (* simulate a kill -9 mid-append: a torn half-record on the tail *)
  append_raw path "\x40\x00\x00\x00\xde\xad\xbe\xefhalf a rec";
  let o2 = Memolog.open_log path in
  Memolog.close o2.Memolog.log;
  Alcotest.(check int) "valid prefix recovered" 2
    (List.length o2.Memolog.entries);
  Alcotest.(check bool) "torn bytes reported" true (o2.Memolog.torn_bytes > 0);
  Alcotest.(check int) "file physically truncated" good_len
    (Unix.stat path).Unix.st_size;
  (* and the next append lands on a clean boundary *)
  let o3 = Memolog.open_log path in
  Memolog.append o3.Memolog.log (mk_entry ~hash:6 ());
  Memolog.close o3.Memolog.log;
  let o4 = Memolog.open_log path in
  Memolog.close o4.Memolog.log;
  Alcotest.(check int) "append after recovery" 3
    (List.length o4.Memolog.entries)

let test_memolog_corrupt_middle () =
  with_tmp @@ fun path ->
  let o = Memolog.open_log path in
  List.iter (Memolog.append o.Memolog.log)
    [ mk_entry ~hash:1 (); mk_entry ~hash:2 (); mk_entry ~hash:3 () ];
  Memolog.close o.Memolog.log;
  (* flip one byte inside the second record: recovery keeps the longest
     valid prefix (record 1) and truncates the rest *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (8 + 8 + 40) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let o2 = Memolog.open_log path in
  Memolog.close o2.Memolog.log;
  Alcotest.(check bool) "prefix only" true (List.length o2.Memolog.entries < 3);
  Alcotest.(check bool) "torn bytes reported" true (o2.Memolog.torn_bytes > 0)

let test_memolog_compact () =
  with_tmp @@ fun path ->
  let o = Memolog.open_log path in
  (* same key twice (first wins), one distinct key *)
  List.iter (Memolog.append o.Memolog.log)
    [
      mk_entry ~hash:1 ();
      { (mk_entry ~hash:1 ()) with
        Service.me_reply =
          { (mk_entry ~hash:1 ()).Service.me_reply with
            Service.r_detail = "late duplicate" } };
      mk_entry ~hash:2 ();
    ];
  Memolog.close o.Memolog.log;
  let kept, dropped = Memolog.compact path in
  Alcotest.(check (pair int int)) "kept/dropped" (2, 1) (kept, dropped);
  let o2 = Memolog.open_log path in
  Memolog.close o2.Memolog.log;
  Alcotest.(check int) "compacted records" 2 (List.length o2.Memolog.entries);
  (* first-writer-wins: the surviving record for the duplicated key is
     the first one, matching the in-memory memo's behavior *)
  match o2.Memolog.entries with
  | e :: _ ->
    Alcotest.(check string) "first record won" "hijacked"
      e.Service.me_reply.Service.r_detail
  | [] -> Alcotest.fail "empty after compact"

(* ---- server lifecycle over loopback ---- *)

let attack_id = (List.hd All.attacks).Catalog.id

let mk_req ?(corr = 1) ?(attack = attack_id) ?(config = "none")
    ?(max_steps = 60_000) ?trace () =
  {
    Frame.rq_corr = corr;
    rq_attack = attack;
    rq_config = config;
    rq_chaos_seed = None;
    rq_max_steps = Some max_steps;
    rq_sanitize = false;
    rq_engine = `Bytecode;
    rq_trace = trace;
  }

let with_server ?config f =
  let svc = Service.create ~jobs:2 () in
  let server = Server.start ?config svc in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Service.shutdown svc)
    (fun () -> f server)

let test_server_lifecycle () =
  with_server @@ fun server ->
  let port = Server.port server in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  match Client.connect ~timeout_s:20. ~host:"127.0.0.1" ~port () with
  | Error f -> Alcotest.failf "connect: %s" (Client.failure_label f)
  | Ok c ->
    Alcotest.(check bool) "ping" true (Client.ping c 99 = Ok ());
    (match Client.request c (mk_req ()) with
    | Ok (Client.Served rep) ->
      Alcotest.(check int) "corr echoed" 1 rep.Frame.rp_corr;
      Alcotest.(check string) "scenario id" attack_id rep.Frame.rp_id;
      let expect =
        Driver.run ~max_steps:60_000 ~sanitize:false (List.hd All.attacks)
      in
      Alcotest.(check bool) "verdict matches in-process driver"
        expect.Driver.verdict.Catalog.success rep.Frame.rp_success
    | Ok _ -> Alcotest.fail "expected Served"
    | Error f -> Alcotest.failf "request: %s" (Client.failure_label f));
    (* same request again: memoized, same verdict *)
    (match Client.request c (mk_req ~corr:2 ()) with
    | Ok (Client.Served rep) ->
      Alcotest.(check int) "corr echoed" 2 rep.Frame.rp_corr;
      Alcotest.(check bool) "served from memo" true rep.Frame.rp_cached
    | _ -> Alcotest.fail "memoized request failed");
    (* unknown attack: a classified rejection, connection stays open *)
    (match Client.request c (mk_req ~corr:3 ~attack:"no-such-attack" ()) with
    | Ok (Client.Rejected m) ->
      Alcotest.(check bool) "reason names the attack" true
        (contains ~sub:"no-such-attack" m)
    | _ -> Alcotest.fail "expected Rejected");
    Alcotest.(check bool) "still serving after rejection" true
      (Client.ping c 100 = Ok ());
    Client.close c

(* Six connections open at once on the one select loop: every one must
   serve and answer pings, and the graceful stop in [with_server] must
   drain them all. *)
let test_six_connections () =
  with_server @@ fun server ->
  let port = Server.port server in
  let clients =
    List.init 6 (fun i ->
        match Client.connect ~timeout_s:20. ~host:"127.0.0.1" ~port () with
        | Error f -> Alcotest.failf "connect %d: %s" i (Client.failure_label f)
        | Ok c -> c)
  in
  List.iteri
    (fun i c ->
      match Client.request c (mk_req ~corr:(100 + i) ()) with
      | Ok (Client.Served rep) ->
        Alcotest.(check int) "corr echoed" (100 + i) rep.Frame.rp_corr
      | Ok _ -> Alcotest.failf "conn %d: expected Served" i
      | Error f -> Alcotest.failf "request %d: %s" i (Client.failure_label f))
    clients;
  List.iter (fun c -> Alcotest.(check bool) "ping" true (Client.ping c 7 = Ok ()))
    clients;
  List.iter Client.close clients

let test_server_rejects_malformed () =
  with_server @@ fun server ->
  let port = Server.port server in
  (* raw garbage: the server must answer a classified error and close,
     then keep serving fresh connections *)
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  ignore (Unix.write fd (Bytes.make 32 'Z') 0 32);
  let buf = Bytes.create 4096 in
  let rec read_reply acc =
    match Frame.decode acc with
    | Frame.Msg (m, _) -> Some m
    | Frame.Need _ -> (
      match Unix.read fd buf 0 4096 with
      | 0 -> None
      | n -> read_reply (acc ^ Bytes.sub_string buf 0 n)
      | exception Unix.Unix_error _ -> None)
    | Frame.Fail _ -> None
  in
  (match read_reply "" with
  | Some (Frame.Reply_error { er_corr = 0; er_message }) ->
    Alcotest.(check bool) "classified" true (String.length er_message > 0)
  | _ -> Alcotest.fail "expected Reply_error for garbage");
  (* ... and the poisoned connection is closed *)
  Alcotest.(check int) "connection closed" 0
    (try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match Client.connect ~timeout_s:10. ~host:"127.0.0.1" ~port () with
  | Ok c ->
    Alcotest.(check bool) "server alive" true (Client.ping c 7 = Ok ());
    Client.close c
  | Error f -> Alcotest.failf "reconnect: %s" (Client.failure_label f)

let test_server_memo_log_recovery () =
  with_tmp @@ fun path ->
  (* first server computes and persists *)
  with_server
    ~config:{ Server.default_config with memo_log = Some path }
    (fun server ->
      let port = Server.port server in
      match Client.connect ~timeout_s:20. ~host:"127.0.0.1" ~port () with
      | Error f -> Alcotest.failf "connect: %s" (Client.failure_label f)
      | Ok c ->
        (match Client.request c (mk_req ()) with
        | Ok (Client.Served _) -> ()
        | _ -> Alcotest.fail "first request failed");
        Client.close c);
  (* second server recovers the entry and serves it from memo *)
  with_server
    ~config:{ Server.default_config with memo_log = Some path }
    (fun server ->
      Alcotest.(check bool) "entries recovered" true (Server.recovered server > 0);
      let port = Server.port server in
      match Client.connect ~timeout_s:20. ~host:"127.0.0.1" ~port () with
      | Error f -> Alcotest.failf "connect: %s" (Client.failure_label f)
      | Ok c ->
        (match Client.request c (mk_req ()) with
        | Ok (Client.Served rep) ->
          Alcotest.(check bool) "served from recovered memo" true
            rep.Frame.rp_cached
        | _ -> Alcotest.fail "request after recovery failed");
        Client.close c)

(* ---- frames and logs from the two-engine protocol ---- *)

(* Flags bit 16 once asked for the bytecode engine instead of the
   tree-walker. Set it on an encoded request and re-seal the CRC. *)
let with_engine_bit frame =
  let b = Bytes.of_string frame in
  let str_len off = Bytes.get_uint16_le b off in
  let config_off = Frame.header_len + 4 + 2 + str_len (Frame.header_len + 4) in
  let flags_off = config_off + 2 + str_len config_off in
  Bytes.set_uint8 b flags_off (Bytes.get_uint8 b flags_off lor 16);
  let s = Bytes.to_string b in
  let crc =
    Pna_net.Crc32.string
      ~crc:(Pna_net.Crc32.string ~len:12 s)
      ~off:Frame.header_len s
  in
  Bytes.set_int32_le b 12 (Int32.of_int crc);
  Bytes.to_string b

(* One raw frame in, one decoded frame out, over a fresh connection. *)
let raw_exchange ~port frame =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let n = Unix.write_substring fd frame 0 (String.length frame) in
  Alcotest.(check int) "frame sent whole" (String.length frame) n;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec read () =
    match Frame.decode (Buffer.contents buf) with
    | Frame.Msg (m, _) -> m
    | Frame.Fail e -> Alcotest.failf "reply: %a" Frame.pp_error e
    | Frame.Need _ ->
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k = 0 then Alcotest.fail "server closed the connection";
      Buffer.add_subbytes buf chunk 0 k;
      read ()
  in
  read ()

let test_engine_bit_served_alike () =
  with_server @@ fun server ->
  let plain = Frame.encode (Frame.Request (mk_req ())) in
  let flagged = with_engine_bit plain in
  Alcotest.(check bool) "the bit is on the wire" true (plain <> flagged);
  (match (Frame.decode plain, Frame.decode flagged) with
  | Frame.Msg (a, _), Frame.Msg (b, _) ->
    Alcotest.(check bool) "both decode to the same request" true (a = b)
  | _ -> Alcotest.fail "a request frame failed to decode");
  let reply frame =
    match raw_exchange ~port:(Server.port server) frame with
    | Frame.Reply_ok r -> r
    | _ -> Alcotest.fail "expected a served reply"
  in
  let first = reply flagged in
  let second = reply plain in
  Alcotest.(check bool) "the flagged request executed" false
    first.Frame.rp_cached;
  Alcotest.(check bool) "the unflagged request hits its memo entry" true
    second.Frame.rp_cached;
  Alcotest.(check bool) "same reply" true
    ({ first with Frame.rp_cached = true } = second)

(* The memo key's input component for [mk_req ()]: the request digest
   of the attacker input under the request's 60 000-step deadline. *)
let mk_req_input_hash (a : Catalog.t) =
  Service.request_digest
    ~input:
      (Service.input_digest
         (Driver.prepared_input (Driver.prepare ~sanitize:false a)))
    ~max_steps:(Some 60_000)

(* A log written while two engines existed may hold an interpreter
   record and a bytecode record for one key: they warm one entry, the
   first record wins and the second counts as a duplicate. *)
let test_memo_log_engines_share_a_key () =
  with_tmp @@ fun path ->
  let a = List.hd All.attacks in
  let input_hash = mk_req_input_hash a in
  let entry engine detail =
    let e = mk_entry ~attack:a.Catalog.id ~hash:input_hash ~engine () in
    { e with
      Service.me_reply = { e.Service.me_reply with Service.r_detail = detail } }
  in
  let o = Memolog.open_log path in
  List.iter (Memolog.append o.Memolog.log)
    [ entry "interp" "interp record"; entry "bytecode" "bytecode record" ];
  Memolog.close o.Memolog.log;
  with_server ~config:{ Server.default_config with memo_log = Some path }
  @@ fun server ->
  Alcotest.(check int) "one entry recovered" 1 (Server.recovered server);
  Alcotest.(check int) "one duplicate" 1 (Server.dup_entries server);
  match
    Client.connect ~timeout_s:20. ~host:"127.0.0.1" ~port:(Server.port server)
      ()
  with
  | Error f -> Alcotest.failf "connect: %s" (Client.failure_label f)
  | Ok c ->
    (match Client.request c (mk_req ()) with
    | Ok (Client.Served rep) ->
      Alcotest.(check bool) "served from the recovered entry" true
        rep.Frame.rp_cached;
      Alcotest.(check string) "the first record won" "interp record"
        rep.Frame.rp_detail
    | _ -> Alcotest.fail "request after recovery failed");
    Client.close c

(* A record without a stable digest is skipped at preload and counted,
   not served, not a reason to truncate; the records around it still
   load, and compaction drops it. *)
let test_memo_log_skips_legacy_records () =
  with_tmp @@ fun path ->
  let a = List.hd All.attacks in
  let legacy =
    let e = mk_entry ~attack:a.Catalog.id ~hash:(mk_req_input_hash a) () in
    { e with
      Service.me_reply =
        { e.Service.me_reply with Service.r_detail = "legacy record" } }
  in
  let o = Memolog.open_log path in
  Memolog.append o.Memolog.log (mk_entry ~attack:"other" ~hash:5 ());
  Memolog.close o.Memolog.log;
  let le32 v = String.init 4 (fun k -> Char.chr ((v lsr (8 * k)) land 0xff)) in
  let payload = legacy_record legacy in
  append_raw path
    (le32 (String.length payload) ^ le32 (Pna_net.Crc32.string payload) ^ payload);
  let size = (Unix.stat path).Unix.st_size in
  let o2 = Memolog.open_log path in
  Memolog.close o2.Memolog.log;
  Alcotest.(check int) "stable record recovered" 1
    (List.length o2.Memolog.entries);
  Alcotest.(check int) "legacy record skipped" 1 o2.Memolog.skipped;
  Alcotest.(check int) "nothing truncated" size (Unix.stat path).Unix.st_size;
  (with_server ~config:{ Server.default_config with memo_log = Some path }
   @@ fun server ->
   Alcotest.(check int) "one entry recovered" 1 (Server.recovered server);
   Alcotest.(check int) "one record skipped" 1 (Server.skipped_entries server);
   match
     Client.connect ~timeout_s:20. ~host:"127.0.0.1"
       ~port:(Server.port server) ()
   with
   | Error f -> Alcotest.failf "connect: %s" (Client.failure_label f)
   | Ok c ->
     (match Client.request c (mk_req ()) with
     | Ok (Client.Served rep) ->
       Alcotest.(check bool) "the legacy record is not served" false
         rep.Frame.rp_cached
     | _ -> Alcotest.fail "request failed");
     Client.close c);
  Alcotest.(check (pair int int)) "compaction drops it" (2, 1)
    (Memolog.compact path)

let test_client_retry_classification () =
  (* a port with nothing behind it: connect-refused is Retryable, and
     call gives up after its attempt budget without ever raising *)
  match
    Client.call ~attempts:2 ~base_ms:1 ~timeout_s:1. ~host:"127.0.0.1"
      ~port:1 (mk_req ())
  with
  | Error (Client.Retryable _) -> ()
  | Error (Client.Terminal m) -> Alcotest.failf "terminal: %s" m
  | Ok _ -> Alcotest.fail "request to a dead port succeeded"

(* ---- miniature chaos soak ---- *)

let test_mini_chaos_soak () =
  with_server @@ fun server ->
  let port = Server.port server in
  let r =
    Loadgen.run ~conns:1 ~window:8 ~chaos:true ~distinct:8 ~timeout_s:20.
      ~host:"127.0.0.1" ~port ~n:150 ~seed:3 ()
  in
  Alcotest.(check int) "no hung requests" 0 r.Loadgen.lg_hung;
  Alcotest.(check int) "no divergent replies" 0 r.Loadgen.lg_sig_conflicts;
  let rejected =
    List.fold_left (fun a (_, n) -> a + n) 0 r.Loadgen.lg_rejected
  in
  Alcotest.(check int) "every request accounted" r.Loadgen.lg_n
    (r.Loadgen.lg_served + r.Loadgen.lg_shed_final + rejected
    + r.Loadgen.lg_hung);
  Alcotest.(check bool) "most requests served" true
    (r.Loadgen.lg_served > r.Loadgen.lg_n / 2)

(* ---- stats frames over a live server ---- *)

let test_stats_over_wire () =
  with_server @@ fun server ->
  let port = Server.port server in
  match Client.connect ~timeout_s:20. ~host:"127.0.0.1" ~port () with
  | Error f -> Alcotest.failf "connect: %s" (Client.failure_label f)
  | Ok c ->
    (match Client.stats c 42 with
    | Error f -> Alcotest.failf "stats: %s" (Client.failure_label f)
    | Ok payload ->
      Alcotest.(check bool) "Prometheus exposition payload" true
        (contains ~sub:"pna_net_draining" payload);
      (* the second poll sees the first one counted under its own kind *)
      (match Client.stats c 43 with
      | Ok p2 ->
        Alcotest.(check bool) "stats replies counted by kind" true
          (contains ~sub:"pna_net_replies_total{kind=\"stats\"}" p2)
      | Error f -> Alcotest.failf "second stats: %s" (Client.failure_label f)));
    (* the connection still serves ordinary traffic afterwards *)
    Alcotest.(check bool) "ping after stats" true (Client.ping c 9 = Ok ());
    Client.close c

(* ---- cross-process trace merge ---- *)

(* Satellite acceptance: a sampled load over loopback, the export split
   into its client-side and server-side halves, the halves merged with
   [Trace.merge_chrome] — every sampled request must come back as one
   connected span tree with no orphans and queue-wait inside its
   request span. *)
let test_wire_trace_merge () =
  Trace.reset ();
  Fun.protect ~finally:Trace.reset @@ fun () ->
  let w =
    Telemetry.with_enabled (fun () ->
        E.e18_wire ~requests:32 ~sample_every:4 ~seed:5 ())
  in
  Alcotest.(check bool) "some requests sampled" true (w.E.w_traced > 0);
  Alcotest.(check int) "one trace per sampled request" w.E.w_traced
    w.E.w_traces;
  Alcotest.(check bool) "every trace rooted at client-request" true
    w.E.w_roots_ok;
  Alcotest.(check int) "no orphan spans after merge" 0 w.E.w_orphans;
  Alcotest.(check bool) "client/request/queue-wait/job layers present" true
    w.E.w_layers_ok;
  Alcotest.(check bool) "queue-wait never outlasts its request" true
    w.E.w_queue_ok;
  Alcotest.(check int) "no trace-ring drops" 0 w.E.w_dropped

(* ---- loadgen request-mix determinism ---- *)

let test_loadgen_mix_seeded () =
  let mix ?targets seed =
    Array.to_list
      (Array.map Loadgen.spec_key (Loadgen.specs ?targets ~distinct:64 ~seed ()))
  in
  Alcotest.(check (list string)) "same seed, same stream" (mix 11) (mix 11);
  Alcotest.(check bool) "different seed, different stream" true
    (mix 11 <> mix 12);
  (* a non-power-of-two target pool (the modulo-bias regression): the
     stream stays a pure function of the seed and only draws from the
     pool — rejection sampling may consume a varying number of raw draws
     per pick, which the old mixing scheme turned into bias *)
  let pool = List.init 13 (fun i -> Fmt.str "corpus-%02d" i) in
  Alcotest.(check (list string)) "seeded over 13 targets"
    (mix ~targets:pool 21) (mix ~targets:pool 21);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "spec drawn from the pool" true
        (List.mem s.Loadgen.s_attack pool))
    (Loadgen.specs ~targets:pool ~distinct:64 ~seed:21 ());
  (* every target of a small pool is reachable: no index starvation *)
  let drawn =
    Array.fold_left
      (fun acc s -> if List.mem s.Loadgen.s_attack acc then acc
                    else s.Loadgen.s_attack :: acc)
      []
      (Loadgen.specs ~targets:pool ~distinct:512 ~seed:33 ())
  in
  Alcotest.(check int) "all 13 targets drawn in 512 specs" 13
    (List.length drawn);
  (* [Some []] and [None] both mean the full catalogue *)
  Alcotest.(check (list string)) "empty target list = catalogue"
    (mix ~targets:[] 5) (mix 5)

let suite =
  ( "net",
    [
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_bitflip_classified;
      QCheck_alcotest.to_alcotest prop_truncation_classified;
      QCheck_alcotest.to_alcotest prop_oversize_classified;
      Alcotest.test_case "stream decode" `Quick test_stream_decode;
      Alcotest.test_case "garbage prefix classified" `Quick test_garbage_prefix;
      Alcotest.test_case "wire v2 is additive: version bytes + round-trips"
        `Quick test_frame_versioning;
      Alcotest.test_case "memo-entry codec round-trip" `Quick
        test_memo_entry_roundtrip;
      Alcotest.test_case "memolog round-trip" `Quick test_memolog_roundtrip;
      Alcotest.test_case "memolog torn-tail recovery" `Quick
        test_memolog_torn_tail;
      Alcotest.test_case "memolog corrupt-middle recovery" `Quick
        test_memolog_corrupt_middle;
      Alcotest.test_case "memolog compaction" `Quick test_memolog_compact;
      Alcotest.test_case "server lifecycle" `Quick test_server_lifecycle;
      Alcotest.test_case "six concurrent connections serve and drain" `Quick
        test_six_connections;
      Alcotest.test_case "malformed frames rejected, server survives" `Quick
        test_server_rejects_malformed;
      Alcotest.test_case "memo-log recovery across restarts" `Quick
        test_server_memo_log_recovery;
      Alcotest.test_case "frames with or without engine bit 16 share a memo entry"
        `Quick test_engine_bit_served_alike;
      Alcotest.test_case "interp and bytecode log records preload one entry"
        `Quick test_memo_log_engines_share_a_key;
      Alcotest.test_case "memo log: records without a stable digest skipped"
        `Quick test_memo_log_skips_legacy_records;
      Alcotest.test_case "client retry classification" `Quick
        test_client_retry_classification;
      Alcotest.test_case "mini chaos soak" `Quick test_mini_chaos_soak;
      Alcotest.test_case "stats frames over a live server" `Quick
        test_stats_over_wire;
      Alcotest.test_case "cross-process trace merge: connected span trees"
        `Quick test_wire_trace_merge;
      Alcotest.test_case "loadgen mix is seed-determined over any pool" `Quick
        test_loadgen_mix_seeded;
    ] )
