(* Unit and property tests for the simulated address space. *)

open Pna_vmem

let mk () =
  let m = Vmem.create () in
  let _ = Vmem.map m ~kind:Segment.Data ~base:0x1000 ~size:0x1000 ~perm:Perm.rw in
  let _ = Vmem.map m ~kind:Segment.Text ~base:0x4000 ~size:0x100 ~perm:Perm.rx in
  let _ = Vmem.map m ~kind:Segment.Stack ~base:0x8000 ~size:0x1000 ~perm:Perm.rwx in
  m

let check_fault name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a fault" name
  | exception Fault.Fault _ -> ()

let test_u8_roundtrip () =
  let m = mk () in
  Vmem.write_u8 m 0x1000 0xab;
  Alcotest.(check int) "u8" 0xab (Vmem.read_u8 m 0x1000);
  Vmem.write_u8 m 0x1fff 0x7;
  Alcotest.(check int) "last byte" 0x7 (Vmem.read_u8 m 0x1fff)

let test_u8_masks () =
  let m = mk () in
  Vmem.write_u8 m 0x1000 0x1ff;
  Alcotest.(check int) "masked to byte" 0xff (Vmem.read_u8 m 0x1000)

let test_u32_little_endian () =
  let m = mk () in
  Vmem.write_u32 m 0x1000 0x11223344;
  Alcotest.(check int) "lsb first" 0x44 (Vmem.read_u8 m 0x1000);
  Alcotest.(check int) "msb last" 0x11 (Vmem.read_u8 m 0x1003);
  Alcotest.(check int) "u32" 0x11223344 (Vmem.read_u32 m 0x1000)

let test_u16 () =
  let m = mk () in
  Vmem.write_u16 m 0x1004 0xbeef;
  Alcotest.(check int) "u16" 0xbeef (Vmem.read_u16 m 0x1004);
  Alcotest.(check int) "low" 0xef (Vmem.read_u8 m 0x1004)

let test_u64 () =
  let m = mk () in
  Vmem.write_u64 m 0x1008 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Vmem.read_u64 m 0x1008);
  Alcotest.(check int) "low word" 0x55667788 (Vmem.read_u32 m 0x1008)

let test_f64 () =
  let m = mk () in
  Vmem.write_f64 m 0x1010 3.9;
  Alcotest.(check (float 0.0)) "double" 3.9 (Vmem.read_f64 m 0x1010)

let test_unmapped_fault () =
  let m = mk () in
  check_fault "read" (fun () -> Vmem.read_u8 m 0x0);
  check_fault "write" (fun () -> Vmem.write_u8 m 0x3000 1);
  check_fault "beyond end" (fun () -> Vmem.read_u8 m 0x2000)

let test_straddle_fault () =
  (* a u32 crossing the end of a segment faults at the first missing byte *)
  let m = mk () in
  check_fault "straddle" (fun () -> Vmem.read_u32 m 0x1ffe)

let test_perm_fault () =
  let m = mk () in
  check_fault "write to text" (fun () -> Vmem.write_u8 m 0x4000 1);
  (* read of text is fine *)
  Alcotest.(check int) "text readable" 0 (Vmem.read_u8 m 0x4000)

let test_poke_bypasses_perms () =
  let m = mk () in
  Vmem.poke_u32 m 0x4000 0xdead;
  Alcotest.(check int) "poked" 0xdead (Vmem.read_u32 m 0x4000)

let test_overlap_rejected () =
  let m = mk () in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Vmem.add_segment: overlapping segment") (fun () ->
      ignore (Vmem.map m ~kind:Segment.Heap ~base:0x1800 ~size:0x1000 ~perm:Perm.rw))

let test_signed32 () =
  Alcotest.(check int) "negative" (-1) (Vmem.to_signed32 0xffffffff);
  Alcotest.(check int) "positive" 0x7fffffff (Vmem.to_signed32 0x7fffffff);
  Alcotest.(check int) "min" (-0x80000000) (Vmem.to_signed32 0x80000000);
  Alcotest.(check int) "roundtrip" 0xffffffff (Vmem.of_signed32 (-1))

let test_blit () =
  let m = mk () in
  Vmem.write_string m 0x1000 "hello";
  Vmem.blit m ~src:0x1000 ~dst:0x1100 ~len:5;
  Alcotest.(check string) "copied" "hello" (Vmem.read_bytes m 0x1100 5)

let test_blit_overlapping () =
  let m = mk () in
  Vmem.write_string m 0x1000 "abcdef";
  Vmem.blit m ~src:0x1000 ~dst:0x1002 ~len:4;
  Alcotest.(check string) "memmove semantics" "ababcd" (Vmem.read_bytes m 0x1000 6)

let test_fill () =
  let m = mk () in
  Vmem.fill m ~dst:0x1000 ~len:8 0x2a;
  Alcotest.(check string) "filled" "********" (Vmem.read_bytes m 0x1000 8)

let test_cstring () =
  let m = mk () in
  Vmem.write_string m 0x1000 "user\000tail";
  Alcotest.(check string) "stops at NUL" "user" (Vmem.read_cstring m 0x1000);
  Alcotest.(check string) "bounded" "us"
    (Vmem.read_cstring ~max_len:2 m 0x1000)

let test_taint_travels_with_blit () =
  let m = mk () in
  Vmem.write_u8 ~taint:true m 0x1000 0x41;
  Vmem.write_u8 m 0x1001 0x42;
  Vmem.blit m ~src:0x1000 ~dst:0x1100 ~len:2;
  Alcotest.(check bool) "tainted byte" true (Vmem.taint_of m 0x1100);
  Alcotest.(check bool) "clean byte" false (Vmem.taint_of m 0x1101)

let test_taint_overwrite_clears () =
  let m = mk () in
  Vmem.write_u8 ~taint:true m 0x1000 1;
  Vmem.write_u8 m 0x1000 2;
  Alcotest.(check bool) "untainted after clean write" false (Vmem.taint_of m 0x1000)

let test_range_tainted () =
  let m = mk () in
  Vmem.write_u8 ~taint:true m 0x1005 1;
  Alcotest.(check bool) "range hit" true (Vmem.range_tainted m 0x1000 8);
  Alcotest.(check bool) "range miss" false (Vmem.range_tainted m 0x1000 5);
  Alcotest.(check int) "count" 1 (Vmem.tainted_bytes m 0x1000 8)

let test_set_taint_range () =
  let m = mk () in
  Vmem.set_taint m 0x1000 4 true;
  Alcotest.(check int) "4 tainted" 4 (Vmem.tainted_bytes m 0x1000 8);
  Vmem.set_taint m 0x1000 4 false;
  Alcotest.(check int) "cleared" 0 (Vmem.tainted_bytes m 0x1000 8)

let test_trace () =
  let m = mk () in
  Vmem.enable_trace m;
  Vmem.write_u32 ~tag:"x" m 0x1000 1;
  let t = Vmem.trace m in
  Alcotest.(check (list (triple int int string))) "one 4-byte span"
    [ (0x1000, 4, "x") ]
    (List.map (fun r -> (r.Vmem.w_addr, r.Vmem.w_len, r.Vmem.w_tag)) t);
  Vmem.clear_trace m;
  Alcotest.(check int) "cleared" 0 (List.length (Vmem.trace m))

let test_find_segment () =
  let m = mk () in
  (match Vmem.find_segment m 0x1234 with
  | Some s -> Alcotest.(check int) "base" 0x1000 s.Segment.base
  | None -> Alcotest.fail "segment not found");
  Alcotest.(check bool) "miss" true (Vmem.find_segment m 0x7000 = None);
  Alcotest.(check bool) "kind lookup" true
    (Vmem.segment_of_kind m Segment.Text <> None)

let test_segments_sorted () =
  let m = mk () in
  let bases = List.map (fun s -> s.Segment.base) (Vmem.segments m) in
  Alcotest.(check (list int)) "ascending" [ 0x1000; 0x4000; 0x8000 ] bases

(* property tests *)

let prop_u32_roundtrip =
  QCheck.Test.make ~count:200 ~name:"vmem: u32 write/read roundtrip"
    QCheck.(pair (int_bound 0xffc) (int_bound 0xffffffff))
    (fun (off, v) ->
      let m = mk () in
      Vmem.write_u32 m (0x1000 + off) v;
      Vmem.read_u32 m (0x1000 + off) = v land 0xffffffff)

let prop_signed_roundtrip =
  QCheck.Test.make ~count:200 ~name:"vmem: signed32 is an involution"
    QCheck.(int_bound 0xffffffff)
    (fun v -> Vmem.of_signed32 (Vmem.to_signed32 v) = v)

let prop_blit_preserves_bytes =
  QCheck.Test.make ~count:100 ~name:"vmem: blit preserves contents"
    QCheck.(pair (string_of_size (Gen.int_range 1 64)) (int_bound 0x700))
    (fun (s, off) ->
      let m = mk () in
      Vmem.write_string m 0x1000 s;
      Vmem.blit m ~src:0x1000 ~dst:(0x1800 + off) ~len:(String.length s);
      Vmem.read_bytes m (0x1800 + off) (String.length s) = s)

let prop_fill_then_read =
  QCheck.Test.make ~count:100 ~name:"vmem: fill writes exactly len bytes"
    QCheck.(pair (int_bound 0xff) (int_range 1 32))
    (fun (v, len) ->
      let m = mk () in
      Vmem.write_u8 m (0x1100 + len) 0x77;
      Vmem.fill m ~dst:0x1100 ~len v;
      Vmem.read_u8 m 0x1100 = v land 0xff
      && Vmem.read_u8 m (0x1100 + len) = 0x77)

(* bounded write-trace ring *)

let test_trace_ring_bounded () =
  let m = mk () in
  Vmem.enable_trace m;
  (* past the ring's fixed bound, whatever it is *)
  let n = 70_000 in
  for i = 0 to n - 1 do
    Vmem.write_u8 ~tag:"w" m (0x1000 + (i land 0xfff)) i
  done;
  let t = Vmem.trace m in
  let dropped = Vmem.trace_dropped m in
  Alcotest.(check bool) "evictions counted" true (dropped > 0);
  Alcotest.(check int) "every write retained or counted as a drop" n
    (List.length t + dropped);
  Alcotest.(check (list int)) "oldest evicted, newest retained, in order"
    (List.init (List.length t) (fun i -> 0x1000 + ((dropped + i) land 0xfff)))
    (List.map (fun r -> r.Vmem.w_addr) t)

(* the ring and its drop count are memory state: a restore
   rewinds them to the snapshot's, even once the ring has wrapped *)
let test_trace_ring_rewinds () =
  let m = mk () in
  Vmem.enable_trace m;
  for i = 0 to 69_999 do
    Vmem.write_u8 m (0x1000 + (i land 0xfff)) i
  done;
  let want = (Vmem.trace m, Vmem.trace_dropped m) in
  Alcotest.(check bool) "ring wrapped before the snapshot" true (snd want > 0);
  let snap = Vmem.snapshot m in
  for i = 0 to 99 do
    Vmem.write_u8 ~tag:"after" m (0x1000 + i) i
  done;
  Vmem.restore m snap;
  Alcotest.(check bool) "records and drops rewound" true
    ((Vmem.trace m, Vmem.trace_dropped m) = want);
  (* a fresh space restored from the snapshot agrees *)
  let twin = mk () in
  Vmem.restore twin snap;
  Alcotest.(check bool) "fresh-space restore agrees" true
    ((Vmem.trace twin, Vmem.trace_dropped twin) = want);
  Vmem.clear_trace m;
  Alcotest.(check int) "clear forgets the records" 0 (List.length (Vmem.trace m));
  Alcotest.(check int) "clear forgets the drops" 0 (Vmem.trace_dropped m)

let test_trace_survives_restore () =
  let m = mk () in
  Vmem.enable_trace m;
  Vmem.write_u8 ~tag:"before" m 0x1000 1;
  Vmem.write_u8 ~tag:"before" m 0x1001 2;
  let snap = Vmem.snapshot m in
  Vmem.write_u8 ~tag:"after" m 0x1002 3;
  Vmem.restore m snap;
  Alcotest.(check (list string)) "trace rewound with memory"
    [ "before"; "before" ]
    (List.map (fun r -> r.Vmem.w_tag) (Vmem.trace m))

(* the observer sees every accessed byte exactly once: whole spans on a
   quiet space, one byte per call when a chaos hook forces the per-byte
   path; chaos still sees one call per byte, the trace one record per
   written span *)

let bulk_ops m =
  Vmem.write_u32 m 0x1000 0xdeadbeef;
  ignore (Vmem.read_u32 m 0x1000);
  ignore (Vmem.read_u64 m 0x1008);
  Vmem.write_u16 m 0x1010 0xbeef;
  Vmem.blit m ~src:0x1000 ~dst:0x1100 ~len:16;
  Vmem.write_bytes m 0x1200 "user\000";
  ignore (Vmem.read_bytes m 0x1200 5);
  ignore (Vmem.read_cstring m 0x1200);
  Vmem.fill m ~dst:0x1300 ~len:8 0x2a

(* write_u32 4w; read_u32 4r; read_u64 8r; write_u16 2w; blit 16r+16w;
   write_bytes 5w; read_bytes 5r; read_cstring 5r (incl. NUL); fill 8w *)
let bulk_reads = 4 + 8 + 16 + 5 + 5
let bulk_writes = 4 + 2 + 16 + 5 + 8

let test_observer_covers_every_byte () =
  let observed ~chaos =
    let m = mk () in
    if chaos then Vmem.set_chaos m (Some (fun ~access:_ ~addr:_ ~byte -> byte));
    let calls = ref 0 and bytes = ref 0 in
    Vmem.set_observer m
      (Some
         (fun ~access:_ ~addr:_ ~len ~taint:_ ->
           incr calls;
           bytes := !bytes + len));
    bulk_ops m;
    Alcotest.(check int) "reads counted per byte" bulk_reads (Vmem.total_reads m);
    Alcotest.(check int) "writes counted per byte" bulk_writes
      (Vmem.total_writes m);
    (!calls, !bytes)
  in
  let calls, bytes = observed ~chaos:false in
  Alcotest.(check int) "quiet: span lengths sum to the bytes accessed"
    (bulk_reads + bulk_writes) bytes;
  Alcotest.(check bool) "quiet: fewer calls than bytes" true (calls < bytes);
  let calls, bytes = observed ~chaos:true in
  Alcotest.(check int) "chaos: every byte observed" (bulk_reads + bulk_writes)
    bytes;
  Alcotest.(check int) "chaos: one call per byte" bytes calls

let test_chaos_bypasses_fast_path () =
  let m = mk () in
  let calls = ref 0 in
  Vmem.set_chaos m
    (Some
       (fun ~access:_ ~addr:_ ~byte ->
         incr calls;
         byte));
  bulk_ops m;
  Alcotest.(check int) "one chaos call per byte" (bulk_reads + bulk_writes)
    !calls

let test_trace_records_spans () =
  let m = mk () in
  Vmem.enable_trace m;
  bulk_ops m;
  Alcotest.(check (list (triple int int string)))
    "one extent per written span, with the caller's tag"
    [
      (0x1000, 4, ""); (0x1010, 2, ""); (0x1100, 16, "blit");
      (0x1200, 5, "blit"); (0x1300, 8, "fill");
    ]
    (List.map (fun r -> (r.Vmem.w_addr, r.Vmem.w_len, r.Vmem.w_tag)) (Vmem.trace m));
  Alcotest.(check int) "reads counted as on a quiet space" bulk_reads
    (Vmem.total_reads m);
  Alcotest.(check int) "writes counted as on a quiet space" bulk_writes
    (Vmem.total_writes m)

(* the fast-path accounting matches a hook-free twin exactly *)
let test_fast_path_accounting () =
  let quiet = mk () in
  bulk_ops quiet;
  Alcotest.(check int) "fast-path reads" bulk_reads (Vmem.total_reads quiet);
  Alcotest.(check int) "fast-path writes" bulk_writes (Vmem.total_writes quiet)

(* property: for any layout and operation sequence, the fast path and
   the per-byte reference path (forced by an identity chaos hook) agree on
   values, faults, final memory, taint and accounting *)

type eq_op =
  | R8 of int
  | R16 of int
  | R32 of int
  | R64 of int
  | W8 of int * int * bool
  | W16 of int * int * bool
  | W32 of int * int * bool
  | W64 of int * int * bool
  | Blit of int * int * int
  | Fill of int * int * int * bool
  | WBytes of int * string * bool
  | RBytes of int * int
  | Cstr of int * int
  | SetTaint of int * int * bool
  | TaintQ of int * int

let eq_layouts =
  [|
    (* adjacent rw|rx boundary plus a gap before an rwx segment *)
    [ (Segment.Data, 0x1000, 0x200, Perm.rw);
      (Segment.Text, 0x1200, 0x100, Perm.rx);
      (Segment.Stack, 0x1400, 0x200, Perm.rwx) ];
    (* small segments with an unmapped hole and a read-only tail *)
    [ (Segment.Data, 0x1000, 0x100, Perm.rw);
      (Segment.Heap, 0x1180, 0x80, Perm.ro) ];
    (* one odd-sized segment, everything else unmapped *)
    [ (Segment.Bss, 0x1000, 0x3ff, Perm.rw) ];
  |]

let mk_eq_layout i =
  let m = Vmem.create () in
  List.iter
    (fun (kind, base, size, perm) -> ignore (Vmem.map m ~kind ~base ~size ~perm))
    eq_layouts.(i mod Array.length eq_layouts);
  m

let eq_gen =
  QCheck.Gen.(
    let addr = int_range 0xf80 0x1700 in
    let len = int_range 0 64 in
    let byte = int_bound 0xff in
    let tnt = bool in
    let op =
      oneof
        [
          map (fun a -> R8 a) addr;
          map (fun a -> R16 a) addr;
          map (fun a -> R32 a) addr;
          map (fun a -> R64 a) addr;
          map3 (fun a v t -> W8 (a, v, t)) addr byte tnt;
          map3 (fun a v t -> W16 (a, v, t)) addr (int_bound 0xffff) tnt;
          map3 (fun a v t -> W32 (a, v, t)) addr (int_bound 0xffffffff) tnt;
          map3 (fun a v t -> W64 (a, v, t)) addr (int_bound 0xffffffff) tnt;
          map3 (fun s d l -> Blit (s, d, l)) addr addr len;
          map3 (fun d l (v, t) -> Fill (d, l, v, t)) addr len (pair byte tnt);
          map3 (fun a s t -> WBytes (a, s, t)) addr (string_size ~gen:char (int_range 0 32)) tnt;
          map2 (fun a l -> RBytes (a, l)) addr len;
          map2 (fun a l -> Cstr (a, l)) addr (int_range 0 16);
          map3 (fun a l t -> SetTaint (a, l, t)) addr len tnt;
          map2 (fun a l -> TaintQ (a, l)) addr len;
        ]
    in
    pair (int_bound 1000) (list_size (int_range 1 40) op))

let eq_apply m = function
  | R8 a -> string_of_int (Vmem.read_u8 m a)
  | R16 a -> string_of_int (Vmem.read_u16 m a)
  | R32 a -> string_of_int (Vmem.read_u32 m a)
  | R64 a -> Int64.to_string (Vmem.read_u64 m a)
  | W8 (a, v, taint) -> Vmem.write_u8 ~taint m a v; ""
  | W16 (a, v, taint) -> Vmem.write_u16 ~taint m a v; ""
  | W32 (a, v, taint) -> Vmem.write_u32 ~taint m a v; ""
  | W64 (a, v, taint) -> Vmem.write_u64 ~taint m a (Int64.of_int v); ""
  | Blit (src, dst, len) -> Vmem.blit m ~src ~dst ~len; ""
  | Fill (dst, len, v, taint) -> Vmem.fill ~taint m ~dst ~len v; ""
  | WBytes (a, s, taint) -> Vmem.write_bytes ~taint m a s; ""
  | RBytes (a, len) -> Vmem.read_bytes m a len
  | Cstr (a, max_len) -> Vmem.read_cstring ~max_len m a
  | SetTaint (a, len, b) -> Vmem.set_taint m a len b; ""
  | TaintQ (a, len) ->
    Printf.sprintf "%b/%d" (Vmem.range_tainted m a len)
      (Vmem.tainted_bytes m a len)

let eq_outcome m op =
  match eq_apply m op with
  | s -> "ok:" ^ s
  | exception Fault.Fault f -> "fault:" ^ Fault.to_string f

let eq_state m =
  ( List.map
      (fun s ->
        (s.Segment.base, Bytes.to_string s.Segment.bytes,
         Bytes.to_string s.Segment.taint))
      (Vmem.segments m),
    (Vmem.total_reads m, Vmem.total_writes m, Vmem.total_taint_writes m,
     Vmem.total_faults m) )

let prop_fast_equals_bytepath =
  QCheck.Test.make ~count:300
    ~name:"vmem: fast path == per-byte path (values, faults, state, stats)"
    (QCheck.make eq_gen) (fun (layout, ops) ->
      let fast = mk_eq_layout layout in
      let slow = mk_eq_layout layout in
      Vmem.set_chaos slow (Some (fun ~access:_ ~addr:_ ~byte -> byte));
      List.for_all (fun op -> eq_outcome fast op = eq_outcome slow op) ops
      && eq_state fast = eq_state slow)

(* property: dirty-page rewinds reproduce the snapshot bit for bit. The
   reference is independent of every Cow store: a flat copy of the
   segment bytes, taint and permissions (and shadow states when the
   oracle rides along), taken byte by byte when the snapshot is made.
   Both the rewound space and a fresh twin restored once from the same
   snapshot (synced to the all-zero image, so it writes only the
   snapshot's non-zero pages) must equal it, through nested
   snapshot/restore, re-dirtying between rewinds, and whichever write
   path (fast, straddling, per-byte under a chaos hook, with or without
   the sanitizer's observer) did the dirtying *)

module San = Pna_sanitizer.Sanitizer

(* fold sanitizer maintenance into the op stream, so shadow pages dirty
   alongside the memory pages they shadow; a stale tail is also reset by
   the observer on the next write over it *)
let shadow_mix sn = function
  | W8 (a, v, _) ->
    San.poison sn ~addr:a ~len:(1 + (v land 31))
      (if v land 32 = 0 then San.Heap_redzone
       else if v land 64 = 0 then San.Freed
       else San.Stale_tail)
  | Fill (d, l, _, _) -> San.unpoison sn ~addr:d ~len:l
  | SetTaint (a, l, _) -> San.poison sn ~addr:a ~len:l San.Stack_meta
  | _ -> ()

let cow_state m san =
  ( List.map
      (fun s ->
        (s.Segment.base, Bytes.to_string s.Segment.bytes,
         Bytes.to_string s.Segment.taint, Perm.to_string s.Segment.perm))
      (Vmem.segments m),
    Option.map
      (fun sn ->
        List.map (fun (b, st) -> (b, Bytes.to_string st)) (San.shadow_images sn))
      san )

let prop_cow_restore_bitexact =
  QCheck.Test.make ~count:200
    ~name:"vmem: dirty-tracked restore == full-copy restore, bit for bit"
    (QCheck.make eq_gen) (fun (layout, ops) ->
      let m = mk_eq_layout layout in
      let sanitized = layout land 1 = 0 in
      (* half the cases attach the oracle, whose shadow map must rewind
         too; half of those also arm an identity chaos hook, so the
         observer is fed one byte at a time instead of one span *)
      let san =
        if sanitized then begin
          if layout land 2 = 0 then
            Vmem.set_chaos m (Some (fun ~access:_ ~addr:_ ~byte -> byte));
          Some (San.attach m)
        end
        else None
      in
      let drive part =
        List.iter
          (fun op ->
            ignore (eq_outcome m op);
            Option.iter (fun sn -> shadow_mix sn op) san)
          part
      in
      let snap () = (Vmem.snapshot m, Option.map San.snapshot san) in
      let restore (v, sn) =
        Vmem.restore m v;
        match (san, sn) with
        | Some s, Some h -> San.restore s h
        | _ -> ()
      in
      (* a second path: a fresh space, synced to the all-zero image,
         restored once *)
      let twin (v, sn) =
        let tw = mk_eq_layout layout in
        let tw_san = if sanitized then Some (San.attach tw) else None in
        Vmem.restore tw v;
        (match (tw_san, sn) with
        | Some s, Some h -> San.restore s h
        | _ -> ());
        cow_state tw tw_san
      in
      let agree s want = cow_state m san = want && twin s = want in
      let half = List.length ops / 2 in
      let h1 = List.filteri (fun i _ -> i < half) ops in
      let h2 = List.filteri (fun i _ -> i >= half) ops in
      drive h1;
      let snap1 = snap () in
      let want1 = cow_state m san in
      drive h2;
      let snap2 = snap () in
      let want2 = cow_state m san in
      drive h1;
      (* rewind to the snapshot the space is synced to: dirty pages only *)
      restore snap2;
      let ok1 = agree snap2 want2 in
      (* a sync miss with nothing dirty: only the page rule (private
         pages, fills that differ) can rewind the pages where the two
         snapshots differ *)
      restore snap1;
      let ok1' = agree snap1 want1 in
      restore snap2;
      drive h2;
      (* rewind to the older snapshot with pages dirty: a sync miss, so
         it writes the dirty pages and the page rule's, then re-syncs *)
      restore snap1;
      let ok2 = agree snap1 want1 in
      (* clean rewind: nothing dirty, the fast no-op path *)
      restore snap1;
      let ok3 = agree snap1 want1 in
      (* the bitmaps must still track after nested rewinds *)
      drive h1;
      restore snap1;
      let ok4 = agree snap1 want1 in
      ok1 && ok1' && ok2 && ok3 && ok4)

(* property: Cow stores against a flat copying model. Two sibling stores
   of one shape (one or two layers; most lengths not a multiple of the
   256-byte page) take random pokes and spans, whole uniform pages among
   them; a freeze records the store's flat contents beside the frozen
   copy, a restore copies a recorded copy back. A fixed prefix freezes
   three copies that differ in a uniform non-zero page. After every step
   both stores equal the model, and every frozen copy, restored in turn
   into one probe store (so each restore starts synced to another copy,
   with nothing dirty), still equals the bytes it was frozen from: later
   writes to its own store or to a sibling never reach it. *)

type cow_op =
  | Span of int * int * int * int * int  (* store, layer, off, len, byte *)
  | Freeze of int  (* store *)
  | Thaw of int * int  (* store, copy index (mod the copies made) *)

let cow_gen =
  QCheck.Gen.(
    let* layers = int_range 1 2 in
    let* len = oneof [ return 1024; int_range 1 1300 ] in
    let store = int_bound 1 and layer = int_bound (layers - 1) in
    let byte = oneofl [ 0; 1; 0x41; 0xff ] in
    let page = map (fun p -> p * 256) (int_bound ((len - 1) / 256)) in
    let span =
      oneof
        [
          map3 (fun (s, l) off v -> Span (s, l, off, 256, v)) (pair store layer) page byte;
          map3 (fun (s, l) (off, n) v -> Span (s, l, off, n, v))
            (pair store layer) (pair (int_bound (len - 1)) (int_range 1 40)) byte;
          map3 (fun (s, l) off v -> Span (s, l, off, 1, v)) (pair store layer)
            (int_bound (len - 1)) (int_range 2 0xfe);
        ]
    in
    let op =
      frequency
        [ (6, span); (2, map (fun s -> Freeze s) store);
          (2, map2 (fun s i -> Thaw (s, i)) store (int_bound 50)) ]
    in
    (* three copies of store 0 that differ in a uniform non-zero page *)
    let prefix =
      List.concat_map (fun v -> [ Span (0, 0, 0, 256, v); Freeze 0 ]) [ 1; 2; 3 ]
    in
    map (fun ops -> (layers, len, prefix @ ops)) (list_size (int_range 1 60) op))

let prop_cow_flat_model =
  QCheck.Test.make ~count:300
    ~name:"cow: paged frozen copies == flat copying model"
    (QCheck.make cow_gen) (fun (layers, len, ops) ->
      let stores = Array.init 2 (fun _ -> Cow.make ~layers len) in
      let model = Array.init 2 (fun _ -> Array.init layers (fun _ -> Bytes.make len '\000')) in
      let copies = ref [] in
      let probe = Cow.make ~layers len in
      let equal st flat =
        Array.for_all2 Bytes.equal (Array.init layers (Cow.layer st)) flat
      in
      let step = function
        | Span (s, l, off, n, v) ->
          let n = min n (len - off) in
          Bytes.fill (Cow.layer stores.(s) l) off n (Char.chr v);
          Cow.mark stores.(s) off n;
          Bytes.fill model.(s).(l) off n (Char.chr v)
        | Freeze s ->
          copies := !copies @ [ (Cow.freeze stores.(s), Array.map Bytes.copy model.(s)) ]
        | Thaw (s, i) ->
          let fz, flat = List.nth !copies (i mod List.length !copies) in
          Cow.restore stores.(s) fz;
          Array.iteri (fun l b -> Bytes.blit b 0 model.(s).(l) 0 len) flat
      in
      List.for_all
        (fun op ->
          step op;
          equal stores.(0) model.(0)
          && equal stores.(1) model.(1)
          && List.for_all
               (fun (fz, flat) -> Cow.restore probe fz; equal probe flat)
               !copies)
        ops)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "vmem",
    [
      t "u8 roundtrip" test_u8_roundtrip;
      t "u8 masks to byte" test_u8_masks;
      t "u32 little endian" test_u32_little_endian;
      t "u16" test_u16;
      t "u64" test_u64;
      t "f64" test_f64;
      t "unmapped access faults" test_unmapped_fault;
      t "segment-straddling access faults" test_straddle_fault;
      t "permission violation faults" test_perm_fault;
      t "poke bypasses permissions" test_poke_bypasses_perms;
      t "overlapping map rejected" test_overlap_rejected;
      t "signed32 conversions" test_signed32;
      t "blit" test_blit;
      t "blit handles overlap like memmove" test_blit_overlapping;
      t "fill" test_fill;
      t "cstring read" test_cstring;
      t "taint travels with blit" test_taint_travels_with_blit;
      t "clean write clears taint" test_taint_overwrite_clears;
      t "range taint queries" test_range_tainted;
      t "set_taint range" test_set_taint_range;
      t "write trace" test_trace;
      t "find_segment" test_find_segment;
      t "segments sorted" test_segments_sorted;
      t "trace ring bounded, drops counted" test_trace_ring_bounded;
      t "trace ring and drops rewind" test_trace_ring_rewinds;
      t "trace state survives restore" test_trace_survives_restore;
      t "observer covers every byte" test_observer_covers_every_byte;
      t "chaos hook forces per-byte path" test_chaos_bypasses_fast_path;
      t "trace records one extent per span" test_trace_records_spans;
      t "fast path counts like byte path" test_fast_path_accounting;
      QCheck_alcotest.to_alcotest prop_u32_roundtrip;
      QCheck_alcotest.to_alcotest prop_signed_roundtrip;
      QCheck_alcotest.to_alcotest prop_blit_preserves_bytes;
      QCheck_alcotest.to_alcotest prop_fill_then_read;
      QCheck_alcotest.to_alcotest prop_fast_equals_bytepath;
      QCheck_alcotest.to_alcotest prop_cow_restore_bitexact;
      QCheck_alcotest.to_alcotest prop_cow_flat_model;
    ] )
