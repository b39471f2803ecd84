(** Append-only on-disk memo cache with per-record CRC and torn-tail
    recovery.

    File layout: an 8-byte magic ["PNAMEMO1"], then records of
    [len u32 | crc32 u32 | payload]. Appends are single whole-record
    writes, so a [kill -9] leaves a valid prefix plus at most one torn
    record; {!open_log} truncates the file at the first bad record and
    the next append lands on a clean boundary. *)

type t

type opened = {
  log : t;  (** positioned for appending *)
  entries : Pna_service.Service.memo_entry list;
      (** valid records with a stable request digest, file order *)
  skipped : int;
      (** valid records without one (written before the digest existed):
          kept on disk, never preloaded *)
  torn_bytes : int;  (** bytes truncated off the tail (0 = clean) *)
}

val open_log : string -> opened
(** Open (creating if absent), recover the valid prefix and truncate any
    torn tail. A file with an unrecognizable header is restarted empty.
    Records without a stable digest are counted in [skipped] and left
    out of [entries]. *)

val append : t -> Pna_service.Service.memo_entry -> unit
(** Append one record in a single write. Thread-safe — the service memo
    sink calls this from worker domains.
    @raise Invalid_argument after {!close}. *)

val close : t -> unit

val compact : string -> int * int
(** Offline compaction: rewrite the log keeping the first record per
    memo key and dropping records without a stable digest, atomically
    (write-aside + rename). Returns [(kept, dropped)]. Run only while no server has the log open. *)
