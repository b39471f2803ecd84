(** The request/reply wire protocol: length-prefixed, CRC-framed,
    versioned binary frames on the {!Pna_serial.Wire} little-endian
    idioms.

    {v
      +0   magic        u32   "PNA1" read as LE  (0x31414e50)
      +4   version      u8    (1)
      +5   kind         u8    (Request=1 .. Pong=6)
      +6   reserved     u16   (0 on encode, ignored on decode)
      +8   payload len  u32   (<= max_payload)
      +12  crc32        u32   (over header bytes 0..11 + payload)
      +16  payload
    v}

    The CRC covers the header's first 12 bytes and the whole payload, so
    any single corrupted bit — including in the length field itself — is
    a classified [Bad_crc], never a silent misparse. The length is
    range-checked {e before} the CRC so an inflated length cannot make
    the decoder wait forever for bytes that will never come: oversize
    frames fail immediately. Decoding never raises; every malformed
    input is a {!error}. *)

let magic = 0x31414e50 (* "PNA1" *)
let version = 1

(* Version 2 adds an optional trace context on requests (flags bit 8,
   two u64s) and the Stats frame pair (kinds 7/8). A frame is stamped
   v2 only when it actually uses a v2 feature, so untraced traffic is
   byte-identical to v1 and old decoders keep working. v2-aware
   decoders accept both. *)
let trace_version = 2
let header_len = 16
let max_payload = 65_536

(* string fields carry a u16 length prefix *)
let max_str = 0xffff

type req = {
  rq_corr : int;  (** u32 correlation id, echoed in the reply *)
  rq_attack : string;  (** catalogue scenario id *)
  rq_config : string;  (** defense configuration name *)
  rq_chaos_seed : int option;  (** run supervised under this plan seed *)
  rq_max_steps : int option;  (** deadline in interpreter steps *)
  rq_sanitize : bool;
  rq_engine : [ `Bytecode ];
      (** compatibility field with one value; flags bit 16, which once
          selected the engine, is never set and ignored on decode *)
  rq_trace : (int * int) option;
      (** (trace id, parent span id) — links the server's spans under
          the caller's trace; [None] encodes as a version-1 frame *)
}

type rep = {
  rp_corr : int;
  rp_id : string;
  rp_config : string;
  rp_chaos_seed : int option;
  rp_status : string;
  rp_success : bool;
  rp_detail : string;
  rp_attempts : int;
  rp_cached : bool;
  rp_violations : int;
}

type msg =
  | Request of req
  | Reply_ok of rep
  | Reply_shed of { sh_corr : int; sh_retry_after_ms : int }
  | Reply_error of { er_corr : int; er_message : string }
      (** [er_corr] is 0 when the offending frame never parsed far enough
          to carry one *)
  | Ping of int
  | Pong of int
  | Stats_req of int
      (** nonce echoed in the reply; asks for a Prometheus snapshot *)
  | Stats_rep of { st_nonce : int; st_payload : string }
      (** Prometheus text exposition, truncated to {!max_str} bytes *)

type error =
  | Bad_magic of int
  | Bad_version of int
  | Bad_kind of int
  | Oversize of int
  | Bad_crc
  | Bad_payload of string

let error_class = function
  | Bad_magic _ -> "magic"
  | Bad_version _ -> "version"
  | Bad_kind _ -> "kind"
  | Oversize _ -> "oversize"
  | Bad_crc -> "crc"
  | Bad_payload _ -> "payload"

let pp_error ppf = function
  | Bad_magic m -> Fmt.pf ppf "bad magic 0x%08x" m
  | Bad_version v -> Fmt.pf ppf "unsupported version %d" v
  | Bad_kind k -> Fmt.pf ppf "unknown frame kind %d" k
  | Oversize n -> Fmt.pf ppf "payload length %d exceeds cap %d" n max_payload
  | Bad_crc -> Fmt.string ppf "crc mismatch"
  | Bad_payload msg -> Fmt.pf ppf "malformed payload: %s" msg

type progress =
  | Msg of msg * int  (** decoded message + bytes consumed *)
  | Need of int  (** at least this many more bytes *)
  | Fail of error

(* -- primitive writers --------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u16 b v =
  add_u8 b v;
  add_u8 b (v lsr 8)

let add_u32 b v =
  add_u16 b v;
  add_u16 b (v lsr 16)

let add_u64 b v =
  (* OCaml ints are 63-bit; the high byte re-encodes the sign so that
     negative hashes round-trip *)
  let v64 = Int64.of_int v in
  for k = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v64 (8 * k)) land 0xff)
  done

let add_str b s =
  if String.length s > max_str then
    Fmt.invalid_arg "Frame: string field of %d bytes exceeds %d"
      (String.length s) max_str;
  add_u16 b (String.length s);
  Buffer.add_string b s

(* -- primitive readers: a cursor over the payload ------------------- *)

exception Short of string

type cursor = { c_buf : string; c_end : int; mutable c_pos : int }

let take c n what =
  if c.c_pos + n > c.c_end then raise (Short what);
  let p = c.c_pos in
  c.c_pos <- p + n;
  p

let get_u8 c what = Char.code c.c_buf.[take c 1 what]

let get_u16 c what =
  let p = take c 2 what in
  Char.code c.c_buf.[p] lor (Char.code c.c_buf.[p + 1] lsl 8)

let get_u32 c what =
  let p = take c 4 what in
  Char.code c.c_buf.[p]
  lor (Char.code c.c_buf.[p + 1] lsl 8)
  lor (Char.code c.c_buf.[p + 2] lsl 16)
  lor (Char.code c.c_buf.[p + 3] lsl 24)

let get_u64 c what =
  let p = take c 8 what in
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code c.c_buf.[p + k]))
  done;
  Int64.to_int !v

let get_str c what =
  let n = get_u16 c what in
  let p = take c n what in
  String.sub c.c_buf p n

(* -- message payloads ----------------------------------------------- *)

let kind_of = function
  | Request _ -> 1
  | Reply_ok _ -> 2
  | Reply_shed _ -> 3
  | Reply_error _ -> 4
  | Ping _ -> 5
  | Pong _ -> 6
  | Stats_req _ -> 7
  | Stats_rep _ -> 8

(* The version stamped on the wire: v1 unless the message uses a v2
   feature, so untraced frames stay byte-identical to the old format. *)
let version_of = function
  | Request { rq_trace = Some _; _ } | Stats_req _ | Stats_rep _ ->
    trace_version
  | _ -> version

let payload_of b = function
  | Request r ->
    add_u32 b r.rq_corr;
    add_str b r.rq_attack;
    add_str b r.rq_config;
    let flags =
      (if r.rq_chaos_seed <> None then 1 else 0)
      lor (if r.rq_max_steps <> None then 2 else 0)
      lor (if r.rq_sanitize then 4 else 0)
      lor if r.rq_trace <> None then 8 else 0
    in
    add_u8 b flags;
    Option.iter (add_u32 b) r.rq_chaos_seed;
    Option.iter (add_u32 b) r.rq_max_steps;
    Option.iter
      (fun (tid, parent) ->
        add_u64 b tid;
        add_u64 b parent)
      r.rq_trace
  | Reply_ok r ->
    add_u32 b r.rp_corr;
    add_str b r.rp_id;
    add_str b r.rp_config;
    let flags =
      (if r.rp_chaos_seed <> None then 1 else 0)
      lor (if r.rp_success then 2 else 0)
      lor if r.rp_cached then 4 else 0
    in
    add_u8 b flags;
    Option.iter (add_u32 b) r.rp_chaos_seed;
    add_str b r.rp_status;
    add_str b r.rp_detail;
    add_u16 b r.rp_attempts;
    add_u16 b r.rp_violations
  | Reply_shed s ->
    add_u32 b s.sh_corr;
    add_u16 b s.sh_retry_after_ms
  | Reply_error e ->
    add_u32 b e.er_corr;
    add_str b e.er_message
  | Ping n | Pong n -> add_u32 b n
  | Stats_req nonce -> add_u32 b nonce
  | Stats_rep s ->
    add_u32 b s.st_nonce;
    add_str b s.st_payload

let parse_payload kind c =
  match kind with
  | 1 ->
    let rq_corr = get_u32 c "corr" in
    let rq_attack = get_str c "attack id" in
    let rq_config = get_str c "config name" in
    let flags = get_u8 c "flags" in
    let rq_chaos_seed =
      if flags land 1 <> 0 then Some (get_u32 c "chaos seed") else None
    in
    let rq_max_steps =
      if flags land 2 <> 0 then Some (get_u32 c "max steps") else None
    in
    let rq_sanitize = flags land 4 <> 0 in
    let rq_trace =
      if flags land 8 <> 0 then
        let tid = get_u64 c "trace id" in
        let parent = get_u64 c "parent span" in
        Some (tid, parent)
      else None
    in
    Request
      {
        rq_corr;
        rq_attack;
        rq_config;
        rq_chaos_seed;
        rq_max_steps;
        rq_sanitize;
        rq_engine = `Bytecode;
        rq_trace;
      }
  | 2 ->
    let rp_corr = get_u32 c "corr" in
    let rp_id = get_str c "id" in
    let rp_config = get_str c "config" in
    let flags = get_u8 c "flags" in
    let rp_chaos_seed =
      if flags land 1 <> 0 then Some (get_u32 c "chaos seed") else None
    in
    let rp_status = get_str c "status" in
    let rp_detail = get_str c "detail" in
    let rp_attempts = get_u16 c "attempts" in
    let rp_violations = get_u16 c "violations" in
    Reply_ok
      {
        rp_corr;
        rp_id;
        rp_config;
        rp_chaos_seed;
        rp_status;
        rp_success = flags land 2 <> 0;
        rp_detail;
        rp_attempts;
        rp_cached = flags land 4 <> 0;
        rp_violations;
      }
  | 3 ->
    let sh_corr = get_u32 c "corr" in
    let sh_retry_after_ms = get_u16 c "retry-after" in
    Reply_shed { sh_corr; sh_retry_after_ms }
  | 4 ->
    let er_corr = get_u32 c "corr" in
    let er_message = get_str c "message" in
    Reply_error { er_corr; er_message }
  | 5 -> Ping (get_u32 c "nonce")
  | 6 -> Pong (get_u32 c "nonce")
  | 7 -> Stats_req (get_u32 c "nonce")
  | 8 ->
    let st_nonce = get_u32 c "nonce" in
    let st_payload = get_str c "stats payload" in
    Stats_rep { st_nonce; st_payload }
  | _ -> assert false (* kind is validated before the payload parse *)

(* -- frame encode / decode ------------------------------------------ *)

let encode msg =
  let pb = Buffer.create 64 in
  payload_of pb msg;
  let payload = Buffer.contents pb in
  if String.length payload > max_payload then
    Fmt.invalid_arg "Frame.encode: payload of %d bytes exceeds %d"
      (String.length payload) max_payload;
  let h = Buffer.create (header_len + String.length payload) in
  add_u32 h magic;
  add_u8 h (version_of msg);
  add_u8 h (kind_of msg);
  add_u16 h 0;
  add_u32 h (String.length payload);
  let crc =
    Crc32.string ~crc:(Crc32.string ~len:12 (Buffer.contents h)) payload
  in
  add_u32 h crc;
  Buffer.add_string h payload;
  Buffer.contents h

let rd32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let decode ?(off = 0) buf =
  let avail = String.length buf - off in
  if avail < header_len then Need (header_len - avail)
  else
    let m = rd32 buf off in
    if m <> magic then Fail (Bad_magic m)
    else
      let v = Char.code buf.[off + 4] in
      if v < version || v > trace_version then Fail (Bad_version v)
      else
        let kind = Char.code buf.[off + 5] in
        if kind < 1 || kind > 8 then Fail (Bad_kind kind)
        else
          let plen = rd32 buf (off + 8) in
          if plen < 0 || plen > max_payload then Fail (Oversize plen)
          else if avail < header_len + plen then
            Need (header_len + plen - avail)
          else
            let expect = rd32 buf (off + 12) in
            let actual =
              Crc32.string
                ~crc:(Crc32.string ~off ~len:12 buf)
                ~off:(off + header_len) ~len:plen buf
            in
            if expect <> actual then Fail Bad_crc
            else
              let c =
                {
                  c_buf = buf;
                  c_end = off + header_len + plen;
                  c_pos = off + header_len;
                }
              in
              match parse_payload kind c with
              | msg ->
                if c.c_pos <> c.c_end then
                  Fail (Bad_payload "trailing bytes after message")
                else Msg (msg, header_len + plen)
              | exception Short what ->
                Fail (Bad_payload (Fmt.str "short field: %s" what))

(* -- conversions to the service layer -------------------------------- *)

module Service = Pna_service.Service

let rep_of_reply (r : Service.reply) =
  {
    rp_corr = 0;
    rp_id = r.Service.r_id;
    rp_config = r.Service.r_config;
    rp_chaos_seed = r.Service.r_chaos_seed;
    rp_status = r.Service.r_status;
    rp_success = r.Service.r_success;
    rp_detail = r.Service.r_detail;
    rp_attempts = r.Service.r_attempts;
    rp_cached = r.Service.r_cached;
    rp_violations = r.Service.r_violations;
  }

let reply_of_rep (r : rep) : Service.reply =
  {
    Service.r_id = r.rp_id;
    r_config = r.rp_config;
    r_chaos_seed = r.rp_chaos_seed;
    r_status = r.rp_status;
    r_success = r.rp_success;
    r_detail = r.rp_detail;
    r_attempts = r.rp_attempts;
    r_cached = r.rp_cached;
    r_violations = r.rp_violations;
  }

(* -- memo-log entry codec -------------------------------------------- *)

(* The on-disk memo record payload shares the frame primitives: the log
   layer wraps these bytes in its own (length, crc) envelope. Flag bit 32
   marks a record whose input hash is the stable request digest
   (attacker input + deadline, {!Service.request_digest}); every record
   written now carries it. Records from before it hold a process-local
   [Hashtbl.hash] that no current key can match. *)
let stable_digest_bit = 32

let encode_memo_entry (e : Service.memo_entry) =
  let b = Buffer.create 96 in
  add_str b e.Service.me_attack;
  add_str b e.Service.me_config;
  let r = e.Service.me_reply in
  let flags =
    (if e.Service.me_chaos_seed <> None then 1 else 0)
    lor (if e.Service.me_sanitize then 2 else 0)
    lor (if r.Service.r_success then 4 else 0)
    lor (if r.Service.r_cached then 8 else 0)
    lor (if e.Service.me_engine = "bytecode" then 16 else 0)
    lor stable_digest_bit
  in
  add_u8 b flags;
  Option.iter (add_u32 b) e.Service.me_chaos_seed;
  add_u64 b e.Service.me_input_hash;
  add_str b r.Service.r_status;
  add_str b r.Service.r_detail;
  add_u16 b r.Service.r_attempts;
  add_u16 b r.Service.r_violations;
  Buffer.contents b

let decode_memo_entry s : (Service.memo_entry * bool, string) result =
  let c = { c_buf = s; c_end = String.length s; c_pos = 0 } in
  match
    let me_attack = get_str c "attack id" in
    let me_config = get_str c "config name" in
    let flags = get_u8 c "flags" in
    let me_chaos_seed =
      if flags land 1 <> 0 then Some (get_u32 c "chaos seed") else None
    in
    let me_input_hash = get_u64 c "input hash" in
    let r_status = get_str c "status" in
    let r_detail = get_str c "detail" in
    let r_attempts = get_u16 c "attempts" in
    let r_violations = get_u16 c "violations" in
    let entry =
      {
        Service.me_attack;
        me_config;
        me_chaos_seed;
        me_input_hash;
        me_sanitize = flags land 2 <> 0;
        (* pre-engine logs have the bit clear and decode as interpreter
           entries — exactly what produced them *)
        me_engine = (if flags land 16 <> 0 then "bytecode" else "interp");
        me_reply =
          {
            Service.r_id = me_attack;
            r_config = me_config;
            r_chaos_seed = me_chaos_seed;
            r_status;
            r_success = flags land 4 <> 0;
            r_detail;
            r_attempts;
            r_cached = flags land 8 <> 0;
            r_violations;
          };
      }
    in
    (entry, flags land stable_digest_bit <> 0)
  with
  | e ->
    if c.c_pos <> c.c_end then Error "trailing bytes after memo entry"
    else Ok e
  | exception Short what -> Error (Fmt.str "short field: %s" what)
