(* Tests for PNASan, the shadow-memory oracle: shadow-map mechanics,
   heap quarantine wiring, determinism under prepared rewinds, and the
   oracle-completeness sweep over the attack catalogue (the fast twin of
   experiment E14). *)

open Pna_vmem
module San = Pna_sanitizer.Sanitizer
module Heap = Pna_machine.Heap
module Machine = Pna_machine.Machine
module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module All = Pna_attacks.All
module Config = Pna_defense.Config
module E = Pna.Experiments

let mk_mem () =
  let m = Vmem.create () in
  let _ =
    Vmem.map m ~kind:Segment.Data ~base:0x1000 ~size:0x1000 ~perm:Perm.rw
  in
  m

let state = Alcotest.testable San.pp_state ( = )

(* ---- shadow map mechanics ---- *)

let test_attach_all_addressable () =
  let m = mk_mem () in
  let s = San.attach m in
  Alcotest.check state "fresh shadow" San.Addressable (San.state_at s 0x1000);
  Alcotest.check state "end of segment" San.Addressable (San.state_at s 0x1fff);
  Alcotest.check state "outside any shadow" San.Addressable
    (San.state_at s 0xdead0000);
  Alcotest.(check int) "no violations" 0 (San.total s)

let test_poison_unpoison () =
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1100 ~len:16 San.Freed;
  Alcotest.check state "poisoned" San.Freed (San.state_at s 0x1100);
  Alcotest.check state "last byte" San.Freed (San.state_at s 0x110f);
  Alcotest.check state "one past" San.Addressable (San.state_at s 0x1110);
  San.unpoison s ~addr:0x1100 ~len:8;
  Alcotest.check state "cleared half" San.Addressable (San.state_at s 0x1104);
  Alcotest.check state "kept half" San.Freed (San.state_at s 0x1108)

let test_poison_addressable_keeps_meta () =
  (* a placement tail overlapping frame meta must not downgrade it *)
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1200 ~len:4 San.Stack_meta;
  San.poison_addressable s ~addr:0x11fc ~len:12 San.Place_tail;
  Alcotest.check state "before meta" San.Place_tail (San.state_at s 0x11fc);
  Alcotest.check state "meta survives" San.Stack_meta (San.state_at s 0x1200);
  Alcotest.check state "after meta" San.Place_tail (San.state_at s 0x1204)

let test_unpoison_state_is_selective () =
  (* a new placement erases a neighbour's guard zone inside its extent
     without disturbing other poison *)
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1300 ~len:8 San.Place_guard;
  San.poison s ~addr:0x1308 ~len:8 San.Freed;
  San.unpoison_state s ~addr:0x1300 ~len:16 San.Place_guard;
  Alcotest.check state "guard cleared" San.Addressable (San.state_at s 0x1300);
  Alcotest.check state "freed untouched" San.Freed (San.state_at s 0x1308)

let test_classification_by_state_and_direction () =
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1100 ~len:8 San.Heap_redzone;
  (* reading a redzone is not a violation; writing is a heap overflow *)
  ignore (Vmem.read_u8 m 0x1100);
  Alcotest.(check int) "redzone read ignored" 0 (San.total s);
  Vmem.write_u8 m 0x1100 0x41;
  (match San.first s with
  | Some v ->
    Alcotest.(check string) "kind" "heap-overflow" (San.kind_name v.San.v_kind);
    Alcotest.(check int) "faulting addr" 0x1100 v.San.v_addr
  | None -> Alcotest.fail "redzone write unrecorded");
  (* freed memory violates in both directions *)
  San.poison s ~addr:0x1200 ~len:8 San.Freed;
  ignore (Vmem.read_u8 m 0x1200);
  Vmem.write_u8 m 0x1204 0;
  Alcotest.(check bool) "freed R and W recorded" true (San.total s >= 3);
  (* stale bytes flag reads, and a write recycles the byte *)
  San.poison s ~addr:0x1300 ~len:4 San.Stale_tail;
  Vmem.write_u8 m 0x1300 7;
  Alcotest.check state "stale byte recycled by write" San.Addressable
    (San.state_at s 0x1300);
  let before = San.total s in
  ignore (Vmem.read_u8 m 0x1301);
  Alcotest.(check int) "stale read recorded" (before + 1) (San.total s)

let test_guard_zone_taint_gated () =
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1400 ~len:San.guard_len San.Place_guard;
  (* untainted writes and any reads are legitimate neighbour traffic *)
  Vmem.write_u8 m 0x1400 1;
  ignore (Vmem.read_u8 m 0x1400);
  Alcotest.(check int) "untainted guard traffic ignored" 0 (San.total s);
  Vmem.write_u8 ~taint:true m 0x1401 0x41;
  match San.first s with
  | Some v ->
    Alcotest.(check string) "tainted guard write is placement overflow"
      "placement-overflow"
      (San.kind_name v.San.v_kind);
    Alcotest.(check bool) "taint recorded" true v.San.v_taint
  | None -> Alcotest.fail "tainted guard write unrecorded"

let test_contiguous_accesses_coalesce () =
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1500 ~len:8 San.Heap_redzone;
  Vmem.write_u32 m 0x1500 0x41414141;
  Alcotest.(check int) "4 violating bytes" 4 (San.total s);
  (match San.violations s with
  | [ v ] -> Alcotest.(check int) "one coalesced record" 4 v.San.v_len
  | vs -> Alcotest.failf "expected 1 record, got %d" (List.length vs));
  Vmem.write_u8 m 0x1506 0 (* gap: separate record *);
  Alcotest.(check int) "records" 2 (List.length (San.violations s))

let test_seal_exempt_unseal () =
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1600 ~len:8 San.Freed;
  San.exempt s (fun () -> Vmem.write_u8 m 0x1600 0);
  Alcotest.(check int) "exempt thunk unrecorded" 0 (San.total s);
  San.seal s;
  Alcotest.(check bool) "sealed" true (San.sealed s);
  Vmem.write_u8 m 0x1600 0;
  Alcotest.(check int) "sealed run unrecorded" 0 (San.total s);
  San.unseal s;
  Vmem.write_u8 m 0x1600 0;
  Alcotest.(check int) "re-armed" 1 (San.total s)

let test_snapshot_restore_rewinds_oracle () =
  let m = mk_mem () in
  let s = San.attach m in
  San.poison s ~addr:0x1700 ~len:8 San.Freed;
  Vmem.write_u8 m 0x1700 0;
  let snap = San.snapshot s in
  San.poison s ~addr:0x1800 ~len:8 San.Heap_redzone;
  Vmem.write_u8 m 0x1800 0;
  Vmem.write_u8 m 0x1701 0;
  Alcotest.(check int) "pre-restore" 3 (San.total s);
  San.restore s snap;
  Alcotest.(check int) "violations rewound" 1 (San.total s);
  Alcotest.check state "later poison rewound" San.Addressable
    (San.state_at s 0x1800);
  Alcotest.check state "earlier poison kept" San.Freed (San.state_at s 0x1700)

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "%a round-trips" San.pp_kind k)
        true
        (San.kind_of_name (San.kind_name k) = Some k))
    San.all_kinds

(* ---- range writes against a byte-wise reference model ---- *)

(* Four segments: two adjacent ones whose shared boundary is not page
   aligned, then two more behind unmapped gaps; the window reaches past
   both ends so ranges can start or end outside any segment. *)
let model_segments =
  [ (0x1000, 0x300); (0x1300, 0x280); (0x1700, 0x200); (0x1a00, 0x100) ]
let window_lo = 0x0f80
let window_hi = 0x1b80

let all_states =
  San.
    [
      Addressable;
      Heap_redzone;
      Heap_meta;
      Freed;
      Stack_meta;
      Place_tail;
      Stale_tail;
      Place_guard;
    ]

type range_op =
  | Poison of int * int * San.state
  | Poison_addressable of int * int * San.state
  | Unpoison of int * int
  | Unpoison_state of int * int * San.state

let pp_range_op ppf = function
  | Poison (a, n, st) -> Fmt.pf ppf "poison 0x%x+%d %a" a n San.pp_state st
  | Poison_addressable (a, n, st) ->
    Fmt.pf ppf "poison_addressable 0x%x+%d %a" a n San.pp_state st
  | Unpoison (a, n) -> Fmt.pf ppf "unpoison 0x%x+%d" a n
  | Unpoison_state (a, n, st) ->
    Fmt.pf ppf "unpoison_state 0x%x+%d %a" a n San.pp_state st

let apply_op s = function
  | Poison (addr, len, st) -> San.poison s ~addr ~len st
  | Poison_addressable (addr, len, st) -> San.poison_addressable s ~addr ~len st
  | Unpoison (addr, len) -> San.unpoison s ~addr ~len
  | Unpoison_state (addr, len, st) -> San.unpoison_state s ~addr ~len st

let mapped addr =
  List.exists (fun (b, n) -> addr >= b && addr < b + n) model_segments

(* The reference: one state per window byte, updated one byte at a time
   with the documented rule of each call. *)
let model_apply model op =
  let each addr len f =
    for a = addr to addr + len - 1 do
      if mapped a then model.(a - window_lo) <- f model.(a - window_lo)
    done
  in
  match op with
  | Poison (addr, len, st) -> each addr len (fun _ -> st)
  | Poison_addressable (addr, len, st) ->
    each addr len (fun cur -> if cur = San.Addressable then st else cur)
  | Unpoison (addr, len) -> each addr len (fun _ -> San.Addressable)
  | Unpoison_state (addr, len, st) ->
    each addr len (fun cur -> if cur = st then San.Addressable else cur)

let range_op_gen =
  QCheck.Gen.(
    let st = oneofl all_states in
    let addr = int_range (window_lo - 0x20) (window_hi + 0x20) in
    (* mostly short ranges, some spanning several segments, a few empty
       or negative *)
    let len =
      frequency
        [ (6, int_range 1 64); (3, int_range 64 0x600); (1, int_range (-8) 0) ]
    in
    frequency
      [
        (3, map3 (fun a n st -> Poison (a, n, st)) addr len st);
        (3, map3 (fun a n st -> Poison_addressable (a, n, st)) addr len st);
        (2, map2 (fun a n -> Unpoison (a, n)) addr len);
        (2, map3 (fun a n st -> Unpoison_state (a, n, st)) addr len st);
      ])

let mk_multi_seg () =
  let m = Vmem.create () in
  List.iter
    (fun (base, size) ->
      ignore (Vmem.map m ~kind:Segment.Data ~base ~size ~perm:Perm.rw))
    model_segments;
  m

(* State code of each state as the shadow images store it. *)
let state_codes () =
  List.map
    (fun st ->
      let s = San.attach (mk_multi_seg ()) in
      San.poison s ~addr:0x1000 ~len:1 st;
      match San.shadow_images s with
      | (_, b) :: _ -> (st, Bytes.get_uint8 b 0)
      | [] -> assert false)
    all_states

(* The model's shadow images, and a full-window [state_at] sweep (which
   also reads the unmapped gaps as addressable). *)
let model_images codes model =
  List.map
    (fun (base, size) ->
      ( base,
        Bytes.init size (fun i ->
            Char.chr (List.assoc model.(base + i - window_lo) codes)) ))
    model_segments

let states_match s model =
  let ok = ref true in
  for a = window_lo to window_hi - 1 do
    if San.state_at s a <> model.(a - window_lo) then ok := false
  done;
  !ok

let matches_model codes s model =
  San.shadow_images s = model_images codes model && states_match s model

(* Three phases: ops, snapshot, ops, restore, ops, restore. The sanitizer
   rewinds through its dirty bitmaps and the byte-wise model is copied
   whole, so a write that skips its dirty mark shows up as a mismatch
   after the restore. *)
let prop_range_writes_match_model =
  QCheck.Test.make ~count:300 ~name:"shadow range writes match a byte-wise model"
    QCheck.(
      make
        ~print:(fun (pre, mid, post) ->
          let ops = Fmt.(Dump.list pp_range_op) in
          Fmt.str "pre %a; mid %a; post %a" ops pre ops mid ops post)
        Gen.(
          triple
            (list_size (int_range 0 12) range_op_gen)
            (list_size (int_range 0 12) range_op_gen)
            (list_size (int_range 0 12) range_op_gen)))
    (fun (pre, mid, post) ->
      let codes = state_codes () in
      let sn = San.attach (mk_multi_seg ()) in
      let model = Array.make (window_hi - window_lo) San.Addressable in
      let step ops =
        List.for_all
          (fun op ->
            apply_op sn op;
            model_apply model op;
            San.shadow_images sn = model_images codes model)
          ops
        && matches_model codes sn model
      in
      let ok_pre = step pre in
      let snap = San.snapshot sn in
      let saved = Array.copy model in
      let rewind () =
        San.restore sn snap;
        matches_model codes sn saved
      in
      let ok_mid = step mid in
      let ok_rewind1 = rewind () in
      Array.blit saved 0 model 0 (Array.length saved);
      let ok_post = step post in
      let ok_rewind2 = rewind () in
      ok_pre && ok_mid && ok_rewind1 && ok_post && ok_rewind2)

(* ---- span-granular observation against the per-byte reference ---- *)

(* An op stream over a sanitized address space: poisons of every state
   interleaved with checked accesses of every shape. Accesses land on
   the same four segments as above, so they straddle the adjacent pair,
   fall into the unmapped gaps and run off both ends of the window. *)
type span_op =
  | Poison_op of range_op
  | Read of int * int  (* width 1/2/4/8, addr *)
  | Read_taint of int * int  (* width 1/2/4/8, addr *)
  | Write of int * int * int * bool  (* width, addr, value, taint *)
  | Blit of int * int * int  (* src, dst, len *)
  | Fill of int * int * bool
  | Write_bytes of int * string * bool
  | Read_bytes of int * int
  | Cstring of int * int  (* addr, max_len *)
  | Set_taint of int * int * bool

let pp_span_op ppf = function
  | Poison_op op -> pp_range_op ppf op
  | Read (w, a) -> Fmt.pf ppf "read%d 0x%x" (8 * w) a
  | Read_taint (w, a) -> Fmt.pf ppf "read%d_taint 0x%x" (8 * w) a
  | Write (w, a, v, t) -> Fmt.pf ppf "write%d 0x%x %d taint=%b" (8 * w) a v t
  | Blit (s, d, n) -> Fmt.pf ppf "blit 0x%x -> 0x%x +%d" s d n
  | Fill (d, n, t) -> Fmt.pf ppf "fill 0x%x+%d taint=%b" d n t
  | Write_bytes (a, s, t) -> Fmt.pf ppf "write_bytes 0x%x %S taint=%b" a s t
  | Read_bytes (a, n) -> Fmt.pf ppf "read_bytes 0x%x+%d" a n
  | Cstring (a, n) -> Fmt.pf ppf "read_cstring 0x%x max %d" a n
  | Set_taint (a, n, t) -> Fmt.pf ppf "set_taint 0x%x+%d %b" a n t

let span_op_gen =
  QCheck.Gen.(
    let addr = int_range (window_lo - 0x10) (window_hi + 0x10) in
    (* near the segment edges: 0x1300 joins the adjacent pair *)
    let edge =
      map2 ( + ) (oneofl [ 0x1000; 0x1300; 0x1580; 0x1700; 0x1a00 ])
        (int_range (-12) 12)
    in
    let addr = frequency [ (3, addr); (2, edge) ] in
    let width = oneofl [ 1; 2; 4; 8 ] in
    let len = int_range 0 48 in
    let poison =
      map3
        (fun a n st -> Poison_op (Poison (a, n, st)))
        addr (int_range 1 0x100) (oneofl all_states)
    in
    frequency
      [
        (4, poison);
        (1, map (fun op -> Poison_op op) range_op_gen);
        (3, map2 (fun w a -> Read (w, a)) width addr);
        (2, map2 (fun w a -> Read_taint (w, a)) width addr);
        ( 4,
          map3
            (fun (w, a) v t -> Write (w, a, v, t))
            (pair width addr) (int_bound 0xffffffff) bool );
        (* overlapping copies half the time *)
        ( 3,
          map3
            (fun s d n -> Blit (s, d, n))
            addr
            (frequency [ (1, addr); (1, return 0) ])
            len
          |> map (function
               | Blit (s, 0, n) -> Blit (s, s + (n mod 17) - 8, n)
               | op -> op) );
        (2, map3 (fun d n t -> Fill (d, n, t)) addr len bool);
        ( 2,
          map3
            (fun a s t -> Write_bytes (a, s, t))
            addr
            (string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (int_range 0 24))
            bool );
        (1, map2 (fun a n -> Read_bytes (a, n)) addr len);
        (2, map2 (fun a n -> Cstring (a, n)) addr (int_range 0 32));
        (2, map3 (fun a n t -> Set_taint (a, n, t)) addr len bool);
      ])

(* [s] is [None] on a space without the oracle: poisons are skipped *)
let span_apply m s = function
  | Poison_op op -> Option.iter (fun s -> apply_op s op) s; ""
  | Read (1, a) -> string_of_int (Vmem.read_u8 m a)
  | Read (2, a) -> string_of_int (Vmem.read_u16 m a)
  | Read (4, a) -> string_of_int (Vmem.read_u32 m a)
  | Read (_, a) -> Int64.to_string (Vmem.read_u64 m a)
  | Read_taint (1, a) -> string_of_int (Vmem.read_u8_taint m a)
  | Read_taint (2, a) -> string_of_int (Vmem.read_u16_taint m a)
  | Read_taint (4, a) -> string_of_int (Vmem.read_u32_taint m a)
  | Read_taint (_, a) ->
    let f, t = Vmem.read_f64_taint m a in
    Fmt.str "%Ld/%b" (Int64.bits_of_float f) t
  | Write (1, a, v, taint) -> Vmem.write_u8 ~taint m a v; ""
  | Write (2, a, v, taint) -> Vmem.write_u16 ~taint m a v; ""
  | Write (4, a, v, taint) -> Vmem.write_u32 ~taint m a v; ""
  | Write (_, a, v, taint) -> Vmem.write_u64 ~taint m a (Int64.of_int v); ""
  | Blit (src, dst, len) -> Vmem.blit m ~src ~dst ~len; ""
  | Fill (dst, len, taint) -> Vmem.fill ~taint m ~dst ~len 0x41; ""
  | Write_bytes (a, str, taint) -> Vmem.write_bytes ~taint m a str; ""
  | Read_bytes (a, len) -> Vmem.read_bytes m a len
  | Cstring (a, max_len) -> Vmem.read_cstring ~max_len m a
  | Set_taint (a, len, t) -> Vmem.set_taint m a len t; ""

let span_outcome m s op =
  match span_apply m s op with
  | r -> "ok:" ^ r
  | exception Fault.Fault f -> "fault:" ^ Fault.to_string f

(* Everything the oracle and the accounting expose. *)
let oracle_state m s =
  ( San.violations s,
    San.total s,
    San.shadow_images s |> List.map (fun (b, st) -> (b, Bytes.to_string st)),
    ( Vmem.total_reads m,
      Vmem.total_writes m,
      Vmem.total_taint_writes m,
      Vmem.total_faults m ) )

(* Two twins run the same stream: one quiet, so the observer sees whole
   spans, and one with an identity chaos hook, which forces every access
   down the per-byte path and so one observer call per byte. *)
let prop_span_equals_bytewise =
  QCheck.Test.make ~count:400
    ~name:"oracle: span observation == per-byte observation"
    QCheck.(
      make
        ~print:(fun ops -> Fmt.(str "%a" (Dump.list pp_span_op)) ops)
        Gen.(list_size (int_range 1 40) span_op_gen))
    (fun ops ->
      let twin () =
        let m = mk_multi_seg () in
        (m, San.attach m)
      in
      let (qm, qs) = twin () and (bm, bs) = twin () in
      Vmem.set_chaos bm (Some (fun ~access:_ ~addr:_ ~byte -> byte));
      List.for_all
        (fun op -> span_outcome qm (Some qs) op = span_outcome bm (Some bs) op)
        ops
      && oracle_state qm qs = oracle_state bm bs)

(* Tracing is unobservable. Three twins run the same stream, plain or
   with the oracle attached: untraced, traced, and traced under an
   identity chaos hook (the per-byte reference path). The traced twin
   must agree with the untraced one on every result, the memory, the
   accounting and the oracle's records and shadow. Its trace, in order,
   must cover exactly the written bytes: the extents sum to the write
   count (the stream stays under the ring's bound), each lies inside one
   segment, and expanded to bytes they are the per-byte twin's records,
   tags included. *)
let prop_tracing_unobservable =
  QCheck.Test.make ~count:300 ~name:"tracing is unobservable"
    QCheck.(
      make
        ~print:(fun (san, ops) ->
          Fmt.(str "sanitized=%b %a" san (Dump.list pp_span_op)) ops)
        Gen.(pair bool (list_size (int_range 1 40) span_op_gen)))
    (fun (sanitized, ops) ->
      let twin () =
        let m = mk_multi_seg () in
        (m, if sanitized then Some (San.attach m) else None)
      in
      let (um, us) = twin () and (tm, ts) = twin () and (bm, bs) = twin () in
      Vmem.enable_trace tm;
      Vmem.enable_trace bm;
      Vmem.set_chaos bm (Some (fun ~access:_ ~addr:_ ~byte -> byte));
      let observable m s =
        ( List.map
            (fun seg ->
              (Bytes.to_string seg.Segment.bytes, Bytes.to_string seg.Segment.taint))
            (Vmem.segments m),
          (Vmem.total_reads m, Vmem.total_writes m, Vmem.total_taint_writes m,
           Vmem.total_faults m),
          Option.map (oracle_state m) s )
      in
      let bytes_of records =
        List.concat_map
          (fun r -> List.init r.Vmem.w_len (fun i -> (r.Vmem.w_addr + i, r.Vmem.w_tag)))
          records
      in
      let inside_one_segment r =
        r.Vmem.w_len >= 1
        &&
        match Vmem.find_segment tm r.Vmem.w_addr with
        | Some seg -> r.Vmem.w_addr + r.Vmem.w_len <= Segment.limit seg
        | None -> false
      in
      let same_results =
        List.for_all
          (fun op ->
            let u = span_outcome um us op in
            let t = span_outcome tm ts op in
            ignore (span_outcome bm bs op);
            u = t)
          ops
      in
      let records = Vmem.trace tm in
      same_results
      && observable um us = observable tm ts
      && Vmem.trace_dropped tm = 0
      && List.fold_left (fun n r -> n + r.Vmem.w_len) 0 records
         = Vmem.total_writes tm
      && List.for_all inside_one_segment records
      && bytes_of records = bytes_of (Vmem.trace bm))

(* ---- heap wiring: redzones, quarantine, double free ---- *)

let mk_heap () =
  let m = Vmem.create () in
  let _ =
    Vmem.map m ~kind:Segment.Heap ~base:0x10000 ~size:0x4000 ~perm:Perm.rw
  in
  let h = Heap.create m ~base:0x10000 ~size:0x4000 in
  let s = San.attach m in
  Heap.set_sanitizer h (Some s);
  (m, h, s)

let malloc_exn h n =
  match Heap.malloc h n with
  | Some a -> a
  | None -> Alcotest.fail "unexpected OOM"

let test_heap_shadow_geometry () =
  let _, h, s = mk_heap () in
  let a = malloc_exn h 16 in
  Alcotest.check state "payload addressable" San.Addressable (San.state_at s a);
  Alcotest.check state "header is meta" San.Heap_meta
    (San.state_at s (a - Heap.header_size));
  Alcotest.check state "past the block is redzone" San.Heap_redzone
    (San.state_at s (a + 16 + Heap.header_size + 8))

let test_use_after_free_detected () =
  let m, h, s = mk_heap () in
  let a = malloc_exn h 16 in
  Heap.free h a;
  Alcotest.(check int) "quarantined" 1 (Heap.quarantined h);
  Alcotest.check state "payload freed" San.Freed (San.state_at s a);
  ignore (Vmem.read_u8 m a);
  match San.first s with
  | Some v ->
    Alcotest.(check string) "kind" "use-after-free" (San.kind_name v.San.v_kind)
  | None -> Alcotest.fail "UAF unrecorded"

let test_quarantine_bounded_and_reusable () =
  let _, h, _ = mk_heap () in
  let blocks = List.init (Heap.quarantine_capacity + 4) (fun _ -> malloc_exn h 16) in
  List.iter (Heap.free h) blocks;
  Alcotest.(check bool) "ring bounded" true
    (Heap.quarantined h <= Heap.quarantine_capacity);
  (* evicted blocks were really released: the arena still serves memory *)
  Alcotest.(check bool) "evictions reusable" true (Heap.malloc h 16 <> None);
  let st = Heap.stats h in
  Alcotest.(check bool) "in_use non-negative" true (st.Heap.in_use >= 0);
  Alcotest.(check bool) "peak non-negative" true (st.Heap.peak >= 0)

let test_double_free_of_quarantined_block () =
  let _, h, _ = mk_heap () in
  let a = malloc_exn h 16 in
  Heap.free h a;
  (match Heap.free h a with
  | () -> Alcotest.fail "double free of quarantined block undetected"
  | exception Heap.Corrupted (addr, msg) ->
    Alcotest.(check int) "payload address" a addr;
    Alcotest.(check string) "reason" "double free" msg);
  let st = Heap.stats h in
  Alcotest.(check bool) "stats stay non-negative" true
    (st.Heap.in_use >= 0 && st.Heap.frees >= 0)

(* ---- the oracle never perturbs execution ---- *)

let test_oracle_transparent () =
  let a = Pna_attacks.L13_stack_ret.attack in
  let plain = Driver.run ~sanitize:false a in
  let san = Driver.run ~sanitize:true a in
  Alcotest.(check bool) "verdict unchanged" plain.Driver.verdict.Catalog.success
    san.Driver.verdict.Catalog.success;
  Alcotest.(check int) "step count unchanged"
    plain.Driver.outcome.Pna_minicpp.Outcome.steps
    san.Driver.outcome.Pna_minicpp.Outcome.steps;
  Alcotest.(check bool) "violations recorded" true
    (san.Driver.violations <> []);
  Alcotest.(check int) "plain run records nothing" 0
    (List.length plain.Driver.violations)

let test_prepared_rewind_deterministic () =
  let p = Driver.prepare ~sanitize:true Pna_attacks.L05_remote_count.attack in
  let sig_of (r : Driver.result) =
    List.map
      (fun v -> (San.kind_name v.San.v_kind, v.San.v_addr, v.San.v_len))
      r.Driver.violations
  in
  let r1 = Driver.run_prepared p in
  let r2 = Driver.run_prepared p in
  Alcotest.(check bool) "rewound run violates identically" true
    (sig_of r1 = sig_of r2 && r1.Driver.violations <> []);
  Alcotest.(check bool) "verdict stable" r1.Driver.verdict.Catalog.success
    r2.Driver.verdict.Catalog.success

let test_violation_counter_exported () =
  let before =
    Pna_telemetry.Metrics.(
      count
        (counter default "pna_san_violations_total"
           ~labels:[ ("kind", "stack-smash") ]))
  in
  Pna_telemetry.Telemetry.with_enabled (fun () ->
      ignore (Driver.run ~sanitize:true Pna_attacks.L13_stack_ret.attack));
  let after =
    Pna_telemetry.Metrics.(
      count
        (counter default "pna_san_violations_total"
           ~labels:[ ("kind", "stack-smash") ]))
  in
  Alcotest.(check bool) "counter advanced" true (after > before)

(* ---- allocation: attaching the oracle writes the shadow in ranges ---- *)

(* Words [f] allocates on this domain: minor plus direct-major, without
   counting promoted words twice. *)
let alloc_words f =
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let r = f () in
  let after = words () in
  ignore (Sys.opaque_identity r);
  int_of_float (after -. before)

(* Attaching the oracle poisons the whole heap shadow. A per-byte shadow
   lookup there costs ~1.5 M words per attach; range writes leave the
   shadow and machine buffers as the bulk of the cost. *)
let attach_alloc_bound = 600_000

let test_sanitized_prepare_allocation () =
  let a = Pna_attacks.L13_stack_ret.attack in
  ignore (Driver.prepare ~sanitize:true a);
  let w = alloc_words (fun () -> Driver.prepare ~sanitize:true a) in
  if w >= attach_alloc_bound then
    Alcotest.failf "sanitized prepare allocated %d words (bound %d)" w
      attach_alloc_bound

let test_sanitized_thaw_allocation () =
  let im =
    Driver.freeze (Driver.prepare ~sanitize:true Pna_attacks.L13_stack_ret.attack)
  in
  ignore (Driver.thaw im);
  let w = alloc_words (fun () -> Driver.thaw im) in
  if w >= attach_alloc_bound then
    Alcotest.failf "sanitized thaw allocated %d words (bound %d)" w
      attach_alloc_bound

(* ---- catalogue sweep: the fast twin of E14 ---- *)

let test_catalog_completeness () =
  List.iter
    (fun (a : Catalog.t) ->
      let expected =
        match List.assoc_opt a.Catalog.id E.e14_expected with
        | Some e -> e
        | None ->
          Alcotest.failf "%s missing from e14_expected" a.Catalog.id
      in
      let r = Driver.run ~sanitize:true a in
      let first =
        match r.Driver.violations with
        | [] -> None
        | v :: _ -> Some (San.kind_name v.San.v_kind)
      in
      Alcotest.(check (option string))
        (Fmt.str "%s first violation" a.Catalog.id)
        expected first;
      (* every flagged attack names the scenario on the record *)
      match r.Driver.violations with
      | v :: _ ->
        Alcotest.(check string)
          (Fmt.str "%s scenario attribution" a.Catalog.id)
          a.Catalog.id v.San.v_scenario
      | [] -> ())
    All.attacks

let test_hardened_twins_flag_free () =
  List.iter
    (fun (a : Catalog.t) ->
      match Driver.run_hardened ~sanitize:true a with
      | None -> ()
      | Some (_, safe, violations) ->
        Alcotest.(check bool) (Fmt.str "%s+hardened safe" a.Catalog.id) true safe;
        Alcotest.(check int)
          (Fmt.str "%s+hardened flag-free" a.Catalog.id)
          0
          (List.length violations))
    All.attacks

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "sanitizer",
    [
      t "attach: everything addressable" test_attach_all_addressable;
      t "poison / unpoison ranges" test_poison_unpoison;
      t "poison_addressable keeps meta" test_poison_addressable_keeps_meta;
      t "unpoison_state is selective" test_unpoison_state_is_selective;
      t "classification by state and direction"
        test_classification_by_state_and_direction;
      t "guard zone is taint-gated" test_guard_zone_taint_gated;
      t "contiguous accesses coalesce" test_contiguous_accesses_coalesce;
      t "seal / exempt / unseal" test_seal_exempt_unseal;
      t "snapshot/restore rewinds the oracle" test_snapshot_restore_rewinds_oracle;
      t "kind names round-trip" test_kind_names_roundtrip;
      QCheck_alcotest.to_alcotest prop_range_writes_match_model;
      QCheck_alcotest.to_alcotest prop_span_equals_bytewise;
      QCheck_alcotest.to_alcotest prop_tracing_unobservable;
      t "heap shadow geometry" test_heap_shadow_geometry;
      t "use-after-free detected via quarantine" test_use_after_free_detected;
      t "quarantine bounded, evictions reusable"
        test_quarantine_bounded_and_reusable;
      t "double free of quarantined block raises" test_double_free_of_quarantined_block;
      t "oracle observes without perturbing" test_oracle_transparent;
      t "prepared rewind is violation-deterministic"
        test_prepared_rewind_deterministic;
      t "violation counter exported" test_violation_counter_exported;
      t "sanitized prepare allocates under the bound"
        test_sanitized_prepare_allocation;
      t "sanitized thaw allocates under the bound" test_sanitized_thaw_allocation;
      t "catalogue completeness matches E14 expectations"
        test_catalog_completeness;
      t "hardened twins are flag-free" test_hardened_twins_flag_free;
    ] )
