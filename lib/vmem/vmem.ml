(** The simulated address space of a 32-bit little-endian process.

    This is the substrate every attack in the paper runs on: a set of
    disjoint segments (text/data/bss/heap/stack) with byte-level access,
    permission checks, and per-byte taint propagation. All multi-byte
    accesses are little-endian, matching the x86 Ubuntu system of the paper.

    Values of 32-bit words are represented as OCaml [int] in the range
    [0, 0xffff_ffff]; use {!to_signed32} for the signed view.

    Access model: every checked accessor has two equivalent
    implementations. The {e byte path} walks the access one byte at a
    time — full segment search, permission check, stats bump, observer
    and chaos dispatch, trace record per byte — and is the semantic
    reference. The {e fast path} services a multi-byte access in one
    step against the segment's backing [Bytes], and engages only when
    (a) no chaos hook is armed, and (b) the whole range lies inside one
    segment with the required permission. An armed observer or write
    trace does not disable it: the fast path reports the whole span to
    the observer in one call and records it as one write record, the
    byte path one byte per call and per record. Anything else —
    straddles, unmapped gaps, protection boundaries, chaos — falls back
    to the byte path, so fault constructors, fault addresses, sanitizer
    observations, taint propagation, chaos injection and the bytes the
    trace covers are identical either way. *)

type write_record = { w_addr : int; w_len : int; w_tag : string }

(** Fault-injection hook: called on every checked byte access with the byte
    about to be moved; returns the byte actually moved (possibly perturbed)
    and may raise {!Fault.Fault} to model a spurious hardware trap. Loader
    pokes bypass it. *)
type chaos_hook = access:Fault.access -> addr:int -> byte:int -> int

(** Observation hook: called once per checked access span
    [[addr, addr+len)] after the permission check succeeds for all of
    it, before the bytes move — once per span on the fast path, once
    per byte ([len = 1]) on the byte path. [taint] is the taint every
    byte of the span is written with ([false] for reads). Unlike
    {!chaos_hook} it cannot perturb the bytes; the sanitizer uses it to
    classify accesses against its shadow map. Loader pokes and
    taint-metadata queries bypass it. *)
type access_hook =
  access:Fault.access -> addr:int -> len:int -> taint:bool -> unit

(* Monotonic access accounting, one row per segment kind. Deliberately
   plain mutable ints: the accessors below are the simulator's hottest
   path and must not pay for atomics (a [t] is single-domain by
   construction — the service clones one per worker). Counters survive
   snapshot/restore: they describe what the simulator *did*, not what
   memory *contains*. *)
type access_stats = {
  mutable a_reads : int;
  mutable a_writes : int;
  mutable a_taint_writes : int;
}

type stats = {
  by_kind : (Segment.kind * access_stats) list;  (* all six kinds *)
  rows : access_stats array;  (* same rows, indexed by Segment.kind_index *)
  mutable faults : int;  (* unmapped + protection, any kind *)
}

let fresh_stats () =
  let rows =
    Array.init Segment.kind_count (fun _ ->
        { a_reads = 0; a_writes = 0; a_taint_writes = 0 })
  in
  {
    by_kind =
      List.map
        (fun k -> (k, rows.(Segment.kind_index k)))
        Segment.[ Text; Data; Bss; Heap; Stack; Mmap ];
    rows;
    faults = 0;
  }

module Ring = Pna_ring.Ring

(* The write trace keeps the newest records in a bounded ring, so a
   long traced session cannot grow memory without bound. *)
let trace_records = 65_536

(* One frozen segment: identity (kind/base/size), the permission word
   and the frozen copy of its store. The copy is never written, so a
   snapshot stays valid however the live space is mutated, and it may be
   shared read-only between domains. *)
type frozen_segment = {
  fz_kind : Segment.kind;
  fz_base : int;
  fz_size : int;
  fz_perm : Perm.t;
  fz_store : Cow.frozen;
}

type snapshot = {
  sn_segments : frozen_segment list;
  sn_trace : write_record Ring.t option;  (* a private copy; never pushed *)
}

type t = {
  mutable segments : Segment.t list;
  mutable hot : Segment.t option;  (* last segment hit by a checked access *)
  mutable trace : write_record Ring.t option;  (* [None]: not tracing *)
  mutable chaos : chaos_hook option;
  mutable observer : access_hook option;
  stats : stats;
}

let create () =
  {
    segments = [];
    hot = None;
    trace = None;
    chaos = None;
    observer = None;
    stats = fresh_stats ();
  }

let access_stats t = t.stats

let stats_row t kind = t.stats.rows.(Segment.kind_index kind)

let set_chaos t hook = t.chaos <- hook
let set_observer t hook = t.observer <- hook

let add_segment t seg =
  let overlaps s =
    seg.Segment.base < Segment.limit s && s.Segment.base < Segment.limit seg
  in
  if List.exists overlaps t.segments then
    invalid_arg "Vmem.add_segment: overlapping segment";
  t.segments <- seg :: t.segments;
  seg

let map t ~kind ~base ~size ~perm =
  add_segment t (Segment.create ~kind ~base ~size ~perm)

let segments t =
  List.sort (fun a b -> compare a.Segment.base b.Segment.base) t.segments

let find_segment t addr = List.find_opt (fun s -> Segment.contains s addr) t.segments

let segment_of_kind t kind =
  List.find_opt (fun s -> s.Segment.kind = kind) t.segments

(* ------------------------------------------------------------------ *)
(* Write tracing (bounded ring)                                        *)

let enable_trace t =
  if t.trace = None then t.trace <- Some (Ring.create trace_records)

let clear_trace t = Option.iter Ring.clear t.trace
let trace t = match t.trace with Some r -> Ring.to_list r | None -> []
let trace_dropped t = match t.trace with Some r -> Ring.dropped r | None -> 0

let[@inline] record_write t addr len tag =
  match t.trace with
  | None -> ()
  | Some r -> Ring.push r { w_addr = addr; w_len = len; w_tag = tag }

(* ------------------------------------------------------------------ *)
(* Checked access: byte path                                           *)

(* Locate the segment for a checked access, enforcing permissions. The
   last segment hit is cached: segments are disjoint, so the cache can
   only ever return the same segment the full search would. *)
let checked t addr access =
  let seg =
    match t.hot with
    | Some s when Segment.contains s addr -> s
    | _ -> (
      match find_segment t addr with
      | Some s ->
        t.hot <- Some s;
        s
      | None ->
        t.stats.faults <- t.stats.faults + 1;
        Fault.raise_ (Fault.Unmapped (addr, access)))
  in
  let ok =
    match access with
    | Fault.Read -> seg.Segment.perm.Perm.read
    | Fault.Write -> seg.Segment.perm.Perm.write
    | Fault.Execute -> seg.Segment.perm.Perm.execute
  in
  if not ok then begin
    t.stats.faults <- t.stats.faults + 1;
    Fault.raise_ (Fault.Protection (addr, access))
  end;
  seg

let read_u8 t addr =
  let seg = checked t addr Fault.Read in
  let row = stats_row t seg.Segment.kind in
  row.a_reads <- row.a_reads + 1;
  (match t.observer with
  | None -> ()
  | Some f -> f ~access:Fault.Read ~addr ~len:1 ~taint:false);
  let b = Segment.get_byte seg addr in
  match t.chaos with
  | None -> b
  | Some f -> f ~access:Fault.Read ~addr ~byte:b land 0xff

let taint_of t addr =
  let seg = checked t addr Fault.Read in
  Segment.get_taint seg addr

let write_u8 ?(tag = "") ?(taint = false) t addr v =
  let seg = checked t addr Fault.Write in
  let row = stats_row t seg.Segment.kind in
  row.a_writes <- row.a_writes + 1;
  if taint then row.a_taint_writes <- row.a_taint_writes + 1;
  (match t.observer with
  | None -> ()
  | Some f -> f ~access:Fault.Write ~addr ~len:1 ~taint);
  let v =
    match t.chaos with
    | None -> v
    | Some f -> f ~access:Fault.Write ~addr ~byte:v land 0xff
  in
  Segment.set_byte seg addr v;
  Segment.set_taint seg addr taint;
  record_write t addr 1 tag

(* Multi-byte little-endian accessors, byte path. Each byte is checked
   individually so that an access straddling a segment boundary faults
   exactly where a real MMU would. *)

let read_uN t addr n =
  let rec go i acc =
    if i = n then acc
    else go (i + 1) (acc lor (read_u8 t (addr + i) lsl (8 * i)))
  in
  go 0 0

let write_uN ~tag ~taint t addr n v =
  for i = 0 to n - 1 do
    write_u8 ~tag ~taint t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

(* ------------------------------------------------------------------ *)
(* Checked access: fast path                                           *)

(* The segment wholly containing [addr, addr+len) with [access]
   permitted, or [None]. Never raises and never counts a fault: callers
   fall back to the byte path, which faults (and counts) at exactly the
   byte a per-byte walk would reach. *)
let seg_span t addr len access =
  let seg =
    match t.hot with
    | Some s when Segment.contains s addr -> t.hot
    | _ -> (
      match find_segment t addr with
      | Some _ as s ->
        t.hot <- s;
        s
      | None -> None)
  in
  match seg with
  | Some s
    when addr + len <= Segment.limit s
         && (match access with
            | Fault.Read -> s.Segment.perm.Perm.read
            | Fault.Write -> s.Segment.perm.Perm.write
            | Fault.Execute -> s.Segment.perm.Perm.execute) ->
    seg
  | _ -> None

(* Fast-path gate: only when no chaos hook is armed may an access skip
   the per-byte dispatch — chaos acts per byte. The observer and the
   write trace take whole spans ([span_read], [span_write]). *)
let[@inline] quiet t = t.chaos == None

let[@inline] fast_span t addr len access =
  if quiet t then seg_span t addr len access else None

let[@inline] taint_char taint = if taint then '\001' else '\000'

(* Account a fast-path span on its segment's row and report it to the
   observer in one call: after [seg_span] proved the whole span
   permitted, before its bytes move — the point at which the byte path
   reports each of its bytes. *)
let[@inline] span_read t (seg : Segment.t) addr n =
  let row = t.stats.rows.(Segment.kind_index seg.Segment.kind) in
  row.a_reads <- row.a_reads + n;
  match t.observer with
  | None -> ()
  | Some f -> f ~access:Fault.Read ~addr ~len:n ~taint:false

let[@inline] observe_write t (seg : Segment.t) addr n ~taint =
  let row = t.stats.rows.(Segment.kind_index seg.Segment.kind) in
  row.a_writes <- row.a_writes + n;
  if taint then row.a_taint_writes <- row.a_taint_writes + n;
  match t.observer with
  | None -> ()
  | Some f -> f ~access:Fault.Write ~addr ~len:n ~taint

(* A fast-path write span: accounted and observed as above, and traced
   as one record carrying the caller's tag. *)
let[@inline] span_write t seg addr n ~taint ~tag =
  observe_write t seg addr n ~taint;
  record_write t addr n tag

(* Shadow the byte-path [read_u8]/[write_u8] above with fast-span
   variants. The byte path stays the fallback — and the reference
   semantics — for straddles (impossible at width 1, but unmapped or
   protected bytes land there) and a chaos hook. Accounting,
   observation and tracing are identical: one read/write bump on the
   segment's row, one observer call, one write record, taint splat. *)
let read_u8_byte = read_u8
let write_u8_byte = write_u8

let read_u8 t addr =
  match fast_span t addr 1 Fault.Read with
  | Some seg ->
    span_read t seg addr 1;
    Char.code (Bytes.unsafe_get seg.Segment.bytes (addr - seg.Segment.base))
  | None -> read_u8_byte t addr

let write_u8 ?(tag = "") ?(taint = false) t addr v =
  match fast_span t addr 1 Fault.Write with
  | Some seg ->
    span_write t seg addr 1 ~taint ~tag;
    let off = addr - seg.Segment.base in
    Bytes.unsafe_set seg.Segment.bytes off (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set seg.Segment.taint off (taint_char taint);
    Cow.mark seg.Segment.store off 1
  | None -> write_u8_byte ~tag ~taint t addr v

let read_u16 t addr =
  match fast_span t addr 2 Fault.Read with
  | Some seg ->
    span_read t seg addr 2;
    Bytes.get_uint16_le seg.Segment.bytes (addr - seg.Segment.base)
  | None -> read_uN t addr 2

let write_u16 ?(tag = "") ?(taint = false) t addr v =
  match fast_span t addr 2 Fault.Write with
  | Some seg ->
    span_write t seg addr 2 ~taint ~tag;
    let off = addr - seg.Segment.base in
    Bytes.set_uint16_le seg.Segment.bytes off v;
    Bytes.fill seg.Segment.taint off 2 (taint_char taint);
    Cow.mark seg.Segment.store off 2
  | None -> write_uN ~tag ~taint t addr 2 v

let read_u32 t addr =
  match fast_span t addr 4 Fault.Read with
  | Some seg ->
    span_read t seg addr 4;
    Int32.to_int (Bytes.get_int32_le seg.Segment.bytes (addr - seg.Segment.base))
    land 0xffffffff
  | None -> read_uN t addr 4

let write_u32 ?(tag = "") ?(taint = false) t addr v =
  match fast_span t addr 4 Fault.Write with
  | Some seg ->
    span_write t seg addr 4 ~taint ~tag;
    let off = addr - seg.Segment.base in
    Bytes.set_int32_le seg.Segment.bytes off (Int32.of_int v);
    Bytes.fill seg.Segment.taint off 4 (taint_char taint);
    Cow.mark seg.Segment.store off 4
  | None -> write_uN ~tag ~taint t addr 4 (v land 0xffffffff)

let read_u64 t addr =
  match fast_span t addr 8 Fault.Read with
  | Some seg ->
    span_read t seg addr 8;
    Bytes.get_int64_le seg.Segment.bytes (addr - seg.Segment.base)
  | None ->
    let lo = Int64.of_int (read_uN t addr 4) in
    let hi = Int64.of_int (read_uN t (addr + 4) 4) in
    Int64.logor lo (Int64.shift_left hi 32)

let write_u64 ?(tag = "") ?(taint = false) t addr v =
  match fast_span t addr 8 Fault.Write with
  | Some seg ->
    span_write t seg addr 8 ~taint ~tag;
    let off = addr - seg.Segment.base in
    Bytes.set_int64_le seg.Segment.bytes off v;
    Bytes.fill seg.Segment.taint off 8 (taint_char taint);
    Cow.mark seg.Segment.store off 8
  | None ->
    write_uN ~tag ~taint t addr 4 Int64.(to_int (logand v 0xffffffffL));
    write_uN ~tag ~taint t (addr + 4) 4
      Int64.(to_int (logand (shift_right_logical v 32) 0xffffffffL))

let read_f64 t addr = Int64.float_of_bits (read_u64 t addr)
let write_f64 ?tag ?taint t addr v = write_u64 ?tag ?taint t addr (Int64.bits_of_float v)

(* Loader-only writes: bypass permission checks so the machine can install
   read-only images (vtables, text stubs) before execution starts. *)

let poke_u8 t addr v =
  match find_segment t addr with
  | None -> Fault.raise_ (Fault.Unmapped (addr, Fault.Write))
  | Some seg -> Segment.set_byte seg addr v

let poke_u32 t addr v =
  for i = 0 to 3 do
    poke_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

(* Bulk loader store: like [poke_u8] it bypasses permissions, hooks,
   stats and taint (existing taint is preserved). One blit when the
   range sits inside one segment; per-byte otherwise. *)
let poke_bytes t addr s =
  let len = String.length s in
  if len > 0 then
    match find_segment t addr with
    | Some seg when addr + len <= Segment.limit seg ->
      let off = addr - seg.Segment.base in
      Bytes.blit_string s 0 seg.Segment.bytes off len;
      Cow.mark seg.Segment.store off len
    | _ -> String.iteri (fun i c -> poke_u8 t (addr + i) (Char.code c)) s

let to_signed32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v
let of_signed32 v = v land 0xffffffff

let read_i32 t addr = to_signed32 (read_u32 t addr)

(* Block operations: taint travels with the bytes. *)

(* No simulated segment is anywhere near this large, so a longer copy is
   guaranteed to walk off its segment and fault; stream it instead of
   materializing a buffer (an attacker-controlled size_t must not make the
   *simulator* allocate gigabytes). *)
let max_buffered_copy = 0x100000

let blit_bytepath ~tag t ~src ~dst ~len =
  if len <= max_buffered_copy then
    (* Copy via an intermediate buffer so overlapping ranges behave like
       memmove; overflow exploits in the paper never rely on memcpy-style
       overlap corruption. *)
    let buf = Array.init len (fun i -> (read_u8 t (src + i), taint_of t (src + i))) in
    Array.iteri (fun i (b, tn) -> write_u8 ~tag ~taint:tn t (dst + i) b) buf
  else
    for i = 0 to len - 1 do
      let b = read_u8 t (src + i) and tn = taint_of t (src + i) in
      write_u8 ~tag ~taint:tn t (dst + i) b
    done

let blit ?(tag = "blit") t ~src ~dst ~len =
  let spans =
    if len > 0 && quiet t then
      match seg_span t src len Fault.Read with
      | Some sseg -> (
        match seg_span t dst len Fault.Write with
        | Some dseg -> Some (sseg, dseg)
        | None -> None)
      | None -> None
    else None
  in
  match spans with
  | Some (sseg, dseg) ->
    let soff = src - sseg.Segment.base and doff = dst - dseg.Segment.base in
    let staint = sseg.Segment.taint in
    (* counted on the source before the copy: an overlapping copy
       rewrites it *)
    let tainted = ref 0 in
    for i = soff to soff + len - 1 do
      if Bytes.unsafe_get staint i <> '\000' then incr tainted
    done;
    span_read t sseg src len;
    (* The write carries the copied taint: one span when it is uniform,
       else observed one byte at a time with each source byte's taint, as
       the byte path reports it. Either way it is one write record. *)
    if !tainted = 0 || !tainted = len then
      span_write t dseg dst len ~taint:(!tainted > 0) ~tag
    else begin
      for i = 0 to len - 1 do
        observe_write t dseg (dst + i) 1
          ~taint:(Bytes.unsafe_get staint (soff + i) <> '\000')
      done;
      record_write t dst len tag
    end;
    (* Bytes.blit is memmove: both copies tolerate src/dst overlap inside
       one segment, matching the buffered byte path. *)
    Bytes.blit sseg.Segment.bytes soff dseg.Segment.bytes doff len;
    Bytes.blit staint soff dseg.Segment.taint doff len;
    Cow.mark dseg.Segment.store doff len
  | None -> blit_bytepath ~tag t ~src ~dst ~len

let fill ?(tag = "fill") ?(taint = false) t ~dst ~len v =
  match fast_span t dst len Fault.Write with
  | Some seg when len > 0 ->
    span_write t seg dst len ~taint ~tag;
    let off = dst - seg.Segment.base in
    Bytes.fill seg.Segment.bytes off len (Char.chr (v land 0xff));
    Bytes.fill seg.Segment.taint off len (taint_char taint);
    Cow.mark seg.Segment.store off len
  | _ ->
    for i = 0 to len - 1 do
      write_u8 ~tag ~taint t (dst + i) v
    done

let write_bytes ?(tag = "blit") ?(taint = false) t addr s =
  let len = String.length s in
  match fast_span t addr len Fault.Write with
  | Some seg when len > 0 ->
    span_write t seg addr len ~taint ~tag;
    let off = addr - seg.Segment.base in
    Bytes.blit_string s 0 seg.Segment.bytes off len;
    Bytes.fill seg.Segment.taint off len (taint_char taint);
    Cow.mark seg.Segment.store off len
  | _ -> String.iteri (fun i c -> write_u8 ~tag ~taint t (addr + i) (Char.code c)) s

let write_string ?(tag = "str") ?taint t addr s = write_bytes ~tag ?taint t addr s

(* Read a NUL-terminated C string, bounded to avoid walking the whole
   address space on corrupted data. *)
let read_cstring_bytepath ~max_len t addr =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= max_len then Buffer.contents buf
    else
      match read_u8 t (addr + i) with
      | 0 -> Buffer.contents buf
      | b ->
        Buffer.add_char buf (Char.chr b);
        go (i + 1)
  in
  go 0

let read_cstring ?(max_len = 4096) t addr =
  if max_len <= 0 then ""
  else
    match fast_span t addr 1 Fault.Read with
    | Some seg ->
      let off = addr - seg.Segment.base in
      let avail = min max_len (seg.Segment.size - off) in
      let bytes = seg.Segment.bytes in
      let rec nul_at j =
        if j >= avail then -1
        else if Bytes.unsafe_get bytes (off + j) = '\000' then j
        else nul_at (j + 1)
      in
      (match nul_at 0 with
      | d when d >= 0 ->
        (* the terminating NUL is read (and counted) but not returned *)
        span_read t seg addr (d + 1);
        Bytes.sub_string bytes off d
      | _ when avail >= max_len ->
        span_read t seg addr max_len;
        Bytes.sub_string bytes off max_len
      | _ ->
        (* no NUL before the segment ends: the byte path decides whether
           the walk continues into an adjacent segment or faults *)
        read_cstring_bytepath ~max_len t addr)
    | None -> read_cstring_bytepath ~max_len t addr

(* Buffer-based so that an attacker-controlled length faults at the segment
   boundary instead of asking the host for a multi-gigabyte string. *)
let read_bytes t addr len =
  match fast_span t addr len Fault.Read with
  | Some seg when len > 0 ->
    span_read t seg addr len;
    Bytes.sub_string seg.Segment.bytes (addr - seg.Segment.base) len
  | _ ->
    let b = Buffer.create (max 16 (min len 4096)) in
    for i = 0 to len - 1 do
      Buffer.add_char b (Char.chr (read_u8 t (addr + i)))
    done;
    Buffer.contents b

(* Taint queries used by attack drivers to prove corruption provenance.
   These bypass hooks and accounting by design, so the fast scan only
   needs the range to sit inside one readable segment. *)

let range_tainted t addr len =
  match seg_span t addr len Fault.Read with
  | Some seg when len > 0 ->
    let off = addr - seg.Segment.base in
    let taint = seg.Segment.taint in
    let rec go i =
      i < len && (Bytes.unsafe_get taint (off + i) <> '\000' || go (i + 1))
    in
    go 0
  | _ ->
    let rec go i = i < len && (taint_of t (addr + i) || go (i + 1)) in
    go 0

let tainted_bytes t addr len =
  match seg_span t addr len Fault.Read with
  | Some seg when len > 0 ->
    let off = addr - seg.Segment.base in
    let taint = seg.Segment.taint in
    let n = ref 0 in
    for i = 0 to len - 1 do
      if Bytes.unsafe_get taint (off + i) <> '\000' then incr n
    done;
    !n
  | _ ->
    let n = ref 0 in
    for i = 0 to len - 1 do
      if taint_of t (addr + i) then incr n
    done;
    !n

(* Combined scalar reads: value and taint in one segment resolution.
   The scalar engines load a value and then ask whether any contributing
   byte was tainted — done naively that resolves the segment twice per
   load. The fast path here requires the same conditions as [fast_span]
   (quiet memory, one spanning segment) and performs exactly the same
   accounting as [read_uN]+[range_tainted] would: reads bumped by [len],
   taint scanned without accounting. Anything else falls back to those
   two calls in the order the engines always made them (taint query
   first — it bypasses hooks — then the checked read). *)

let read_u8_taint t addr =
  match fast_span t addr 1 Fault.Read with
  | Some seg ->
    span_read t seg addr 1;
    let off = addr - seg.Segment.base in
    (Char.code (Bytes.unsafe_get seg.Segment.bytes off) lsl 1)
    lor (if Bytes.unsafe_get seg.Segment.taint off <> '\000' then 1 else 0)
  | None ->
    let tainted = range_tainted t addr 1 in
    (read_u8 t addr lsl 1) lor (if tainted then 1 else 0)

let read_u16_taint t addr =
  match fast_span t addr 2 Fault.Read with
  | Some seg ->
    span_read t seg addr 2;
    let off = addr - seg.Segment.base in
    let taint = seg.Segment.taint in
    (Bytes.get_uint16_le seg.Segment.bytes off lsl 1)
    lor
    (if
       Bytes.unsafe_get taint off <> '\000'
       || Bytes.unsafe_get taint (off + 1) <> '\000'
     then 1
     else 0)
  | None ->
    let tainted = range_tainted t addr 2 in
    (read_u16 t addr lsl 1) lor (if tainted then 1 else 0)

let read_u32_taint t addr =
  match fast_span t addr 4 Fault.Read with
  | Some seg ->
    span_read t seg addr 4;
    let off = addr - seg.Segment.base in
    let taint = seg.Segment.taint in
    (Int32.to_int (Bytes.get_int32_le seg.Segment.bytes off)
     land 0xffffffff)
    lsl 1
    lor
    (if
       Bytes.unsafe_get taint off <> '\000'
       || Bytes.unsafe_get taint (off + 1) <> '\000'
       || Bytes.unsafe_get taint (off + 2) <> '\000'
       || Bytes.unsafe_get taint (off + 3) <> '\000'
     then 1
     else 0)
  | None ->
    let tainted = range_tainted t addr 4 in
    (read_u32 t addr lsl 1) lor (if tainted then 1 else 0)

let read_f64_taint t addr =
  match fast_span t addr 8 Fault.Read with
  | Some seg ->
    span_read t seg addr 8;
    let off = addr - seg.Segment.base in
    let taint = seg.Segment.taint in
    let rec any i = i < 8 && (Bytes.unsafe_get taint (off + i) <> '\000' || any (i + 1)) in
    (Int64.float_of_bits (Bytes.get_int64_le seg.Segment.bytes off), any 0)
  | None ->
    let tainted = range_tainted t addr 8 in
    (read_f64 t addr, tainted)

let set_taint t addr len tainted =
  match seg_span t addr len Fault.Read with
  | Some seg when len > 0 ->
    let off = addr - seg.Segment.base in
    Bytes.fill seg.Segment.taint off len (taint_char tainted);
    Cow.mark seg.Segment.store off len
  | _ ->
    for i = 0 to len - 1 do
      let seg = checked t (addr + i) Fault.Read in
      Segment.set_taint seg (addr + i) tainted
    done

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                   *)

(* Each segment's store decides which pages a rewind writes (see {!Cow}).
   Only the segment list, permissions and trace are decided here. *)

let snapshot t =
  {
    sn_segments =
      List.map
        (fun (s : Segment.t) ->
          {
            fz_kind = s.Segment.kind;
            fz_base = s.Segment.base;
            fz_size = s.Segment.size;
            fz_perm = s.Segment.perm;
            fz_store = Cow.freeze s.Segment.store;
          })
        t.segments;
    sn_trace = Option.map Ring.copy t.trace;
  }

let[@inline] same_identity (s : Segment.t) fz =
  s.Segment.base = fz.fz_base
  && s.Segment.size = fz.fz_size
  && s.Segment.kind = fz.fz_kind

let rec same_layout segs fzs =
  match (segs, fzs) with
  | [], [] -> true
  | s :: ss, fz :: fs -> same_identity s fz && same_layout ss fs
  | _ -> false

(* Restore contents, taint, permissions and trace state to the snapshot.
   Segments mapped after the snapshot are unmapped again; segments present
   at snapshot time are restored *in place*, so references held elsewhere
   (the heap allocator, attack checks) stay valid. The chaos hook is
   deliberately untouched: it is runtime configuration, not memory state. *)
let restore t snap =
  if not (same_layout t.segments snap.sn_segments) then begin
    let live = t.segments in
    t.segments <-
      List.map
        (fun fz ->
          match List.find_opt (fun s -> same_identity s fz) live with
          | Some s -> s
          | None ->
            Segment.create ~kind:fz.fz_kind ~base:fz.fz_base ~size:fz.fz_size
              ~perm:fz.fz_perm)
        snap.sn_segments;
    (* the cached segment may have been mapped after the snapshot *)
    t.hot <- None
  end;
  List.iter2
    (fun (s : Segment.t) fz ->
      s.Segment.perm <- fz.fz_perm;
      Cow.restore s.Segment.store fz.fz_store)
    t.segments snap.sn_segments;
  t.trace <- Option.map Ring.copy snap.sn_trace

(* ------------------------------------------------------------------ *)
(* Access accounting queries                                            *)

let total_reads t =
  List.fold_left (fun acc (_, r) -> acc + r.a_reads) 0 t.stats.by_kind

let total_writes t =
  List.fold_left (fun acc (_, r) -> acc + r.a_writes) 0 t.stats.by_kind

let total_taint_writes t =
  List.fold_left (fun acc (_, r) -> acc + r.a_taint_writes) 0 t.stats.by_kind

let total_faults t = t.stats.faults

let pp_stats ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (k, r) ->
      if r.a_reads > 0 || r.a_writes > 0 then
        Fmt.pf ppf "%-5s  r=%-8d w=%-8d taint-w=%d@,"
          (Segment.kind_name k) r.a_reads r.a_writes r.a_taint_writes)
    t.stats.by_kind;
  Fmt.pf ppf "faults=%d@]" t.stats.faults

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Segment.pp) (segments t)
