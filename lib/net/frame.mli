(** The request/reply wire protocol: length-prefixed, CRC-framed,
    versioned binary frames.

    Layout (all integers little-endian, {!Pna_serial.Wire} idiom):

    {v
      +0   magic        u32   "PNA1"  (0x31414e50)
      +4   version      u8    (1)
      +5   kind         u8
      +6   reserved     u16
      +8   payload len  u32   (<= max_payload)
      +12  crc32        u32   (header bytes 0..11 + payload)
      +16  payload
    v}

    {!decode} never raises: every malformed input — wrong magic, alien
    version, unknown kind, inflated length, flipped bit, truncated or
    over-long payload — comes back as a classified {!error}. The length
    field is capped before the CRC check, so a corrupt length can never
    park the decoder waiting for bytes that will never arrive. *)

val magic : int
val version : int

val trace_version : int
(** Version 2: adds an optional trace context on requests (flags bit 8)
    and the {!msg.Stats_req}/{!msg.Stats_rep} frame pair. Frames that
    use neither are stamped {!version} and stay byte-identical to the
    v1 wire format, so old decoders keep working; v2-aware decoders
    accept both versions. *)

val header_len : int
val max_payload : int
val max_str : int

type req = {
  rq_corr : int;  (** u32 correlation id, echoed in the reply *)
  rq_attack : string;  (** catalogue scenario id *)
  rq_config : string;  (** defense configuration name *)
  rq_chaos_seed : int option;  (** run supervised under this plan seed *)
  rq_max_steps : int option;  (** deadline in interpreter steps *)
  rq_sanitize : bool;
  rq_engine : [ `Bytecode ];
      (** compatibility field with one value. Flags bit 16 once selected
          the engine; encoders no longer set it and decoders ignore it,
          so frames with or without it are served identically *)
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
      (** [er_corr] is 0 when the offending frame never parsed far
          enough to carry one *)
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

val error_class : error -> string
(** Stable label for metrics: ["magic"], ["version"], ["kind"],
    ["oversize"], ["crc"] or ["payload"]. *)

val pp_error : Format.formatter -> error -> unit

type progress =
  | Msg of msg * int  (** decoded message + bytes consumed *)
  | Need of int  (** at least this many more bytes *)
  | Fail of error

val encode : msg -> string
(** @raise Invalid_argument when a string field exceeds the u16 length
    prefix or the payload exceeds {!max_payload} — caller bugs, not wire
    conditions. *)

val decode : ?off:int -> string -> progress
(** Decode one frame starting at [off]. Never raises on any input. *)

(** {1 Service conversions} *)

val rep_of_reply : Pna_service.Service.reply -> rep
(** [rp_corr] is 0; the server stamps the request's correlation id. *)

val reply_of_rep : rep -> Pna_service.Service.reply

(** {1 Memo-log entry codec}

    The byte form of a {!Pna_service.Service.memo_entry} — what
    {!Memolog} wraps in its per-record (length, crc) envelope. *)

val encode_memo_entry : Pna_service.Service.memo_entry -> string
val decode_memo_entry :
  string -> (Pna_service.Service.memo_entry * bool, string) result
(** The entry, and whether its input hash is a stable
    {!Pna_service.Service.request_digest} (record flag bit 32, set by
    every {!encode_memo_entry}). A record without it predates the
    digest and can never match a current memo key. *)
