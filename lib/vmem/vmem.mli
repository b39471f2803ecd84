(** The simulated address space of a 32-bit little-endian process.

    Every checked access is verified against the mapping and the
    permissions of each byte it covers, and raises {!Fault.Fault} at the
    byte where a real MMU would trap. 32-bit word values
    are OCaml [int]s in [0, 0xffff_ffff]; {!to_signed32} gives the signed
    view. Every write carries a taint flag; taint marks bytes whose value
    derives from attacker input and travels with copies.

    Scalar accessors take a fast path — one segment lookup, one
    permission check, one stats bump, one observer call, one write
    record when tracing, one taint splat against the segment's backing
    bytes — whenever the whole range lies inside one segment and no
    chaos hook is armed. Any other case (straddle, unmapped gap,
    protection boundary, chaos hook) falls back to the per-byte
    reference path, so faults, observations, taint, chaos injection and
    the bytes the write trace covers are identical either way. *)

type write_record = { w_addr : int; w_len : int; w_tag : string }

type t

(** {1 Mapping} *)

val create : unit -> t

val map :
  t -> kind:Segment.kind -> base:int -> size:int -> perm:Perm.t -> Segment.t
(** Map a fresh segment. @raise Invalid_argument on overlap. *)

val segments : t -> Segment.t list
(** Sorted by base address. *)

val find_segment : t -> int -> Segment.t option
val segment_of_kind : t -> Segment.kind -> Segment.t option

(** {1 Checked scalar access} *)

val read_u8 : t -> int -> int
val write_u8 : ?tag:string -> ?taint:bool -> t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : ?tag:string -> ?taint:bool -> t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : ?tag:string -> ?taint:bool -> t -> int -> int -> unit
val read_u64 : t -> int -> int64
val write_u64 : ?tag:string -> ?taint:bool -> t -> int -> int64 -> unit
val read_f64 : t -> int -> float
val write_f64 : ?tag:string -> ?taint:bool -> t -> int -> float -> unit
val read_i32 : t -> int -> int
(** Signed view of a u32 read. *)

val to_signed32 : int -> int
val of_signed32 : int -> int

(** {1 Combined scalar reads}

    Value plus any-byte-tainted in a single segment resolution — the
    scalar-load fast path for the execution engines, which otherwise pay
    one resolution for the taint query and another for the read.
    Accounting and semantics are exactly [read_uN] + [range_tainted]:
    reads are bumped by the access width, the taint scan is unaccounted,
    and when the fast path does not apply (chaos armed, straddling
    span) the two calls are made in that order. The integer variants return
    [bits lsl 1 lor taint] — packed in one immediate so the hot load
    path stays allocation-free. *)

val read_u8_taint : t -> int -> int
val read_u16_taint : t -> int -> int
val read_u32_taint : t -> int -> int
val read_f64_taint : t -> int -> float * bool

(** {1 Loader-only raw access}

    Bypass permission checks; used to install read-only images (vtables,
    text, literals) before execution. *)

val poke_u8 : t -> int -> int -> unit
val poke_u32 : t -> int -> int -> unit

val poke_bytes : t -> int -> string -> unit
(** Raw multi-byte store; existing taint on the range is preserved. *)

(** {1 Block operations} *)

val blit : ?tag:string -> t -> src:int -> dst:int -> len:int -> unit
(** memmove semantics; taint travels with the bytes. *)

val fill : ?tag:string -> ?taint:bool -> t -> dst:int -> len:int -> int -> unit

val write_bytes : ?tag:string -> ?taint:bool -> t -> int -> string -> unit
(** Store a whole string at [addr] — the [memcpy]/[recv]-shaped bulk
    write (default tag ["blit"]). One checked blit when the range sits
    inside one writable segment; per-byte otherwise. *)

val write_string : ?tag:string -> ?taint:bool -> t -> int -> string -> unit
(** {!write_bytes} with default tag ["str"]. *)

val read_cstring : ?max_len:int -> t -> int -> string
(** Read a NUL-terminated string, bounded by [max_len] (default 4096). *)

val read_bytes : t -> int -> int -> string

(** {1 Taint queries} *)

val taint_of : t -> int -> bool
val range_tainted : t -> int -> int -> bool
val tainted_bytes : t -> int -> int -> int
val set_taint : t -> int -> int -> bool -> unit

(** {1 Fault injection} *)

type chaos_hook = access:Fault.access -> addr:int -> byte:int -> int
(** Called on every checked byte access with the byte about to be
    returned (reads) or stored (writes); the result replaces it, masked
    to 8 bits. The chaos layer uses this to model memory bit flips. *)

val set_chaos : t -> chaos_hook option -> unit

(** {1 Access observation} *)

type access_hook =
  access:Fault.access -> addr:int -> len:int -> taint:bool -> unit
(** Called once per checked access span [[addr, addr+len)] after the
    permission check succeeds for all of it, before the bytes move.
    The fast path makes one call per span, which always lies inside one
    segment; the byte path makes one call per byte ([len = 1]). Arming
    it does not disable the fast path — a chaos hook does. [taint] is the taint the span is written with ([false] for
    reads); a block copy whose source taint is mixed reports its write
    one byte at a time, so every call carries one taint. Cannot perturb
    the access; the sanitizer uses it to classify accesses against its
    shadow map. Loader pokes and taint-metadata queries bypass it. *)

val set_observer : t -> access_hook option -> unit

(** {1 Snapshot / restore}

    The substitution that powers the scenario service: freeze a prepared
    address space once, then rewind to it between requests instead of
    rebuilding the image. A snapshot holds frozen copies of every
    segment's contents and taint (a segment unwritten since the last
    snapshot or restore reuses the copy it is synced to), the permission
    words and the write-trace state, so it remains valid however the live
    space is mutated afterwards; frozen copies are never written, so
    snapshots may be shared across domains. A frozen copy keeps only the
    256-byte pages that are not one byte repeated.

    Rewinds are copy-on-write, decided per segment by its {!Cow} store:
    every write path marks the 256-byte pages it touches, and a restore
    writes a page only when it is dirty, when the snapshot holds it as a
    private page, or when the snapshot's fill byte for it differs from
    the copy the store is synced to. A store synced to the snapshot's
    own copy therefore writes only its dirty pages, and a fresh segment
    (synced to the all-zero image) only the snapshot's non-zero pages.
    E19's [rewind] and [replica-rewind] paths check that both kinds of
    rewind reproduce the loaded state byte for byte. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Rewind contents, taint, permissions and write-trace state to the
    snapshot. Segments mapped after the snapshot are unmapped again;
    segments present at snapshot time are restored in place, so
    [Segment.t] references held elsewhere stay valid. The chaos hook is
    untouched — it is runtime configuration, not memory state. *)

(** {1 Access accounting}

    Monotonic counters over the checked accessors, one row per segment
    kind. They survive {!restore} — they describe what the simulator
    did, not what memory contains — so run deltas come from sampling
    before and after. Loader pokes and taint-metadata queries are not
    counted. *)

type access_stats = {
  mutable a_reads : int;
  mutable a_writes : int;
  mutable a_taint_writes : int;
}

type stats = {
  by_kind : (Segment.kind * access_stats) list;
  rows : access_stats array;
      (** the same rows, indexed by {!Segment.kind_index} — the form the
          accessors' hot path uses *)
  mutable faults : int;
}

val access_stats : t -> stats
val total_reads : t -> int
val total_writes : t -> int
val total_taint_writes : t -> int
val total_faults : t -> int
val pp_stats : Format.formatter -> t -> unit

(** {1 Write tracing}

    Each checked write is recorded as one [{w_addr; w_len; w_tag}]
    extent per access span, tagged by the caller: the fast path records
    the whole span it wrote, the byte path (chaos armed, straddles,
    faults) one byte per record. Tracing does not force the byte path,
    and the records, in order, cover exactly the bytes written — each
    inside one segment. They land in a bounded {!Pna_ring.Ring} of the
    newest 65536 records; older ones are counted by {!trace_dropped}.
    The ring, its drop count and whether tracing is on are memory
    state: {!snapshot} copies them and {!restore} rewinds them. *)

val enable_trace : t -> unit
(** Start tracing (no-op when already on). *)

val clear_trace : t -> unit
(** Forget every record and the drop count. *)

val trace_dropped : t -> int
(** Records evicted from the ring since tracing began or the last
    {!clear_trace}. *)

val trace : t -> write_record list
(** Retained records, oldest first. *)

val pp : Format.formatter -> t -> unit
