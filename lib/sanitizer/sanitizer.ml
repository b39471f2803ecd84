(** PNASan shadow-memory implementation. See the interface for the model.

    The shadow is one byte of state per simulated byte, stored per
    segment. Lookup mirrors [Vmem]'s hot-segment cache: the last shadow
    hit is tried first, then a linear scan over the handful of mapped
    segments. The observer sees whole access spans and checks each with
    one scan of its shadow. Range writes (poison/unpoison) never look up
    per byte: they clip the range against each shadow once. *)

module Vmem = Pna_vmem.Vmem
module Fault = Pna_vmem.Fault
module Segment = Pna_vmem.Segment

type state =
  | Addressable
  | Heap_redzone
  | Heap_meta
  | Freed
  | Stack_meta
  | Place_tail
  | Stale_tail
  | Place_guard

type kind =
  | Heap_overflow
  | Use_after_free
  | Placement_overflow
  | Stack_smash
  | Meta_write
  | Stale_read

type violation = {
  v_kind : kind;
  v_addr : int;
  v_len : int;
  v_access : Fault.access;
  v_taint : bool;
  v_state : state;
  v_scenario : string;
  v_site : string;
  v_seq : int;
}

module Cow = Pna_vmem.Cow

(* Shadow of one segment: states packed one byte each, the one layer a
   copy-on-write store allocates (zero: addressable), so a rewind writes
   only touched pages and a frozen shadow keeps only its mixed pages. *)
type shadow = {
  sh_base : int;
  sh_size : int;
  sh_states : Bytes.t;
  sh_store : Cow.t;
}

type t = {
  mem : Vmem.t;
  mutable shadows : shadow list;
  mutable hit : shadow;  (* last shadow an access fell in *)
  mutable scenario : string;
  mutable site : (unit -> string) option;
  mutable exempt_depth : int;
  mutable is_sealed : bool;
  mutable recs : violation list;  (* most recent first *)
  mutable n_recs : int;
  mutable total : int;  (* exact violating byte accesses *)
  mutable on_violation : (violation -> unit) option;
      (* flight-recorder tap: fires once per new record, never on
         byte-wise coalescing *)
  mutable on_transition :
    (op:string -> addr:int -> len:int -> state -> unit) option;
      (* shadow-state transition tap (poison/unpoison calls) *)
}

(* Enough records for any catalogue run; pathological loops keep counting
   in [total] without growing the list. *)
let max_records = 4096

(* Guard-zone width past a placement arena — two words, enough to catch
   the first out-of-arena store of a construction loop. *)
let guard_len = 8

let st_code = function
  | Addressable -> 0
  | Heap_redzone -> 1
  | Heap_meta -> 2
  | Freed -> 3
  | Stack_meta -> 4
  | Place_tail -> 5
  | Stale_tail -> 6
  | Place_guard -> 7

let st_of_code = function
  | 0 -> Addressable
  | 1 -> Heap_redzone
  | 2 -> Heap_meta
  | 3 -> Freed
  | 4 -> Stack_meta
  | 5 -> Place_tail
  | 6 -> Stale_tail
  | _ -> Place_guard

let state_name = function
  | Addressable -> "addressable"
  | Heap_redzone -> "heap-redzone"
  | Heap_meta -> "heap-meta"
  | Freed -> "freed"
  | Stack_meta -> "stack-meta"
  | Place_tail -> "place-tail"
  | Stale_tail -> "stale-tail"
  | Place_guard -> "place-guard"

let kind_name = function
  | Heap_overflow -> "heap-overflow"
  | Use_after_free -> "use-after-free"
  | Placement_overflow -> "placement-overflow"
  | Stack_smash -> "stack-smash"
  | Meta_write -> "meta-write"
  | Stale_read -> "stale-read"

let all_kinds =
  [
    Heap_overflow;
    Use_after_free;
    Placement_overflow;
    Stack_smash;
    Meta_write;
    Stale_read;
  ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds
let pp_kind ppf k = Fmt.string ppf (kind_name k)
let pp_state ppf s = Fmt.string ppf (state_name s)

let pp_violation ppf v =
  Fmt.pf ppf "#%d %s %s 0x%08x+%d [%s]%s%s%s" v.v_seq (kind_name v.v_kind)
    (match v.v_access with
    | Fault.Read -> "read"
    | Fault.Write -> "write"
    | Fault.Execute -> "exec")
    v.v_addr v.v_len (state_name v.v_state)
    (if v.v_taint then " tainted" else "")
    (if v.v_scenario = "" then "" else " scenario=" ^ v.v_scenario)
    (if v.v_site = "" then "" else " at " ^ v.v_site)

let shadow ~base ~size =
  let store = Cow.make ~layers:1 size in
  { sh_base = base; sh_size = size; sh_states = Cow.layer store 0;
    sh_store = store }

(* The shadow wholly covering [addr, addr+len), or [no_shadow]. Never
   allocates: the last hit is cached and the miss path is a plain walk. *)
let no_shadow = shadow ~base:0 ~size:0

let[@inline] covers sh addr len =
  addr >= sh.sh_base && addr + len <= sh.sh_base + sh.sh_size

let rec covering_in t addr len = function
  | [] -> no_shadow
  | sh :: rest ->
    if covers sh addr len then begin
      t.hit <- sh;
      sh
    end
    else covering_in t addr len rest

let covering t addr len =
  if covers t.hit addr len then t.hit else covering_in t addr len t.shadows

let state_at t addr =
  let sh = covering t addr 1 in
  if sh == no_shadow then Addressable
  else st_of_code (Bytes.get_uint8 sh.sh_states (addr - sh.sh_base))

let shadow_images t =
  List.map (fun sh -> (sh.sh_base, sh.sh_states)) t.shadows
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Rewrite the shadow of [addr, addr+len) to [code]: every byte when
   [from < 0], else only the bytes whose state code is [from]. Shadows
   never overlap (one per segment), so the range is at most one clipped
   run per shadow it meets; bytes in unmapped gaps are skipped and
   [len <= 0] touches nothing. *)
let rewrite t ~addr ~len ~from code =
  let stop = addr + len in
  let rec go = function
    | [] -> ()
    | sh :: rest ->
      let lo = Int.max addr sh.sh_base
      and hi = Int.min stop (sh.sh_base + sh.sh_size) in
      if lo < hi then begin
        let off = lo - sh.sh_base and n = hi - lo in
        if from < 0 then begin
          Bytes.fill sh.sh_states off n (Char.unsafe_chr code);
          Cow.mark sh.sh_store off n
        end
        else
          for i = off to off + n - 1 do
            if Bytes.get_uint8 sh.sh_states i = from then begin
              Bytes.set_uint8 sh.sh_states i code;
              Cow.mark sh.sh_store i 1
            end
          done
      end;
      go rest
  in
  go t.shadows

let transition t op addr len st =
  match t.on_transition with
  | Some f -> f ~op ~addr ~len st
  | None -> ()

let poison t ~addr ~len st =
  transition t "poison" addr len st;
  rewrite t ~addr ~len ~from:(-1) (st_code st)

let poison_addressable t ~addr ~len st =
  transition t "poison-addressable" addr len st;
  rewrite t ~addr ~len ~from:(st_code Addressable) (st_code st)

let unpoison t ~addr ~len =
  transition t "unpoison" addr len Addressable;
  rewrite t ~addr ~len ~from:(-1) (st_code Addressable)

let unpoison_state t ~addr ~len st =
  transition t "unpoison-state" addr len st;
  rewrite t ~addr ~len ~from:(st_code st) (st_code Addressable)

let set_scenario t s = t.scenario <- s
let set_site t f = t.site <- f
let seal t = t.is_sealed <- true
let unseal t = t.is_sealed <- false
let sealed t = t.is_sealed

let exempt t f =
  t.exempt_depth <- t.exempt_depth + 1;
  Fun.protect ~finally:(fun () -> t.exempt_depth <- t.exempt_depth - 1) f

(* Classification table: which (state, access) pairs violate. Reads are
   flagged only for [Freed] and [Stale_tail]: a placement tail overlays
   memory the program also legitimately owns through its original name,
   so reading it is not evidence of corruption, and redzone/meta reads
   would false-positive on benign whole-struct copies. A [Place_guard]
   byte — the guard zone just past an exactly-sized placement arena —
   only violates on a *tainted* write: the neighbouring object is live
   program memory, so the taint tracker is the cross-check that the
   write came from attacker input rather than the program's own use of
   the neighbour. *)
let classify st access ~taint =
  match (st, access) with
  | Freed, (Fault.Read | Fault.Write) -> Some Use_after_free
  | Heap_redzone, Fault.Write -> Some Heap_overflow
  | Heap_meta, Fault.Write -> Some Meta_write
  | Stack_meta, Fault.Write -> Some Stack_smash
  | Place_tail, Fault.Write -> Some Placement_overflow
  | Stale_tail, Fault.Read -> Some Stale_read
  | Place_guard, Fault.Write when taint -> Some Placement_overflow
  | _ -> None

let record t kind st access addr taint =
  t.total <- t.total + 1;
  (* Coalesce byte-wise continuations of the same classified access so a
     four-byte store reads as one record. *)
  match t.recs with
  | last :: rest
    when last.v_kind = kind && last.v_access = access
         && addr = last.v_addr + last.v_len ->
    t.recs <- { last with v_len = last.v_len + 1 } :: rest
  | _ ->
    if t.n_recs < max_records then begin
      let site = match t.site with None -> "" | Some f -> ( try f () with _ -> "") in
      let v =
        {
          v_kind = kind;
          v_addr = addr;
          v_len = 1;
          v_access = access;
          v_taint = taint;
          v_state = st;
          v_scenario = t.scenario;
          v_site = site;
          v_seq = t.n_recs;
        }
      in
      t.recs <- v :: t.recs;
      t.n_recs <- t.n_recs + 1;
      (match t.on_violation with Some f -> f v | None -> ());
      if Pna_telemetry.Switch.enabled () then
        Pna_telemetry.Metrics.(
          incr
            (counter default "pna_san_violations_total"
               ~labels:[ ("kind", kind_name kind) ]))
    end

(* A write over a stale tail re-initializes the byte: the leaked secret
   is gone, so later reads are clean. *)
let[@inline] resets st access = st = Stale_tail && access = Fault.Write

(* Classify one byte at shadow offset [off]. *)
let on_byte t sh off access addr taint =
  let code = Bytes.get_uint8 sh.sh_states off in
  if code <> 0 then begin
    let st = st_of_code code in
    (match classify st access ~taint with
    | Some kind -> record t kind st access addr taint
    | None -> ());
    if resets st access then begin
      Bytes.set_uint8 sh.sh_states off 0;
      Cow.mark sh.sh_store off 1
    end
  end

(* Bit [code] of a mask is set when a byte in that state makes [on_byte]
   record or reset under the access; bytes in any other state are
   no-ops for it. One mask per (access, taint), derived from [classify]
   and [resets] so they cannot drift apart. *)
let masks =
  Array.init 6 (fun i ->
      let access = [| Fault.Read; Fault.Write; Fault.Execute |].(i / 2)
      and taint = i land 1 = 1 in
      let m = ref 0 in
      for code = 0 to 7 do
        let st = st_of_code code in
        if classify st access ~taint <> None || resets st access then
          m := !m lor (1 lsl code)
      done;
      !m)

let[@inline] mask access taint =
  masks.((match access with Fault.Read -> 0 | Fault.Write -> 2 | Fault.Execute -> 4)
         + Bool.to_int taint)

(* No byte of [states[off, stop)] is in a state set in [m]. *)
let rec inert states m off stop =
  off >= stop
  || ((m lsr Bytes.get_uint8 states off) land 1 = 0
      && inert states m (off + 1) stop)

(* The observer. A span the fast path reports lies inside one segment
   and so inside at most one shadow (one per segment, built at attach);
   its common case is one scan that finds no byte the access could flag
   or reset. Any other span is classified byte by byte in address order,
   exactly as one [len = 1] call per byte would be: same records, same
   coalescing, same stale-tail resets. *)
let on_access t ~access ~addr ~len ~taint =
  if t.exempt_depth = 0 && not t.is_sealed then begin
    let sh = covering t addr len in
    if sh != no_shadow then begin
      let off = addr - sh.sh_base in
      if not (inert sh.sh_states (mask access taint) off (off + len)) then
        for i = 0 to len - 1 do
          on_byte t sh (off + i) access (addr + i) taint
        done
    end
    else if len > 1 then
      (* Outside every shadow, e.g. in a segment mapped after attach,
         which has none: each byte finds its own shadow, if any. *)
      for i = 0 to len - 1 do
        let a = addr + i in
        let sh = covering t a 1 in
        if sh != no_shadow then on_byte t sh (a - sh.sh_base) access a taint
      done
  end

let attach ?(scenario = "") mem =
  let shadows =
    List.map
      (fun (s : Segment.t) -> shadow ~base:s.Segment.base ~size:s.Segment.size)
      (Vmem.segments mem)
  in
  let t =
    {
      mem;
      shadows;
      hit = no_shadow;
      scenario;
      site = None;
      exempt_depth = 0;
      is_sealed = false;
      recs = [];
      n_recs = 0;
      total = 0;
      on_violation = None;
      on_transition = None;
    }
  in
  Vmem.set_observer mem
    (Some (fun ~access ~addr ~len ~taint -> on_access t ~access ~addr ~len ~taint));
  t

let detach t = Vmem.set_observer t.mem None
let set_on_violation t f = t.on_violation <- f
let set_on_transition t f = t.on_transition <- f

let violations t = List.rev t.recs
let first t = match List.rev t.recs with [] -> None | v :: _ -> Some v
let total t = t.total

let count_by_kind t =
  let add acc v =
    let n = try List.assoc v.v_kind acc with Not_found -> 0 in
    (v.v_kind, n + 1) :: List.remove_assoc v.v_kind acc
  in
  List.fold_left add [] t.recs |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                   *)

type snapshot = {
  sn_states : (int * int * Cow.frozen) list;  (* base, size, states *)
  sn_recs : violation list;
  sn_n_recs : int;
  sn_total : int;
}

(* Each shadow's store decides its own rewind (see [Cow]); a snapshot
   shadow matches a live one by base and size. *)
let snapshot t =
  {
    sn_states =
      List.map
        (fun sh -> (sh.sh_base, sh.sh_size, Cow.freeze sh.sh_store))
        t.shadows;
    sn_recs = t.recs;
    sn_n_recs = t.n_recs;
    sn_total = t.total;
  }

let restore t snap =
  List.iter
    (fun sh ->
      match
        List.find_opt
          (fun (base, size, _) -> base = sh.sh_base && size = sh.sh_size)
          snap.sn_states
      with
      | Some (_, _, fz) -> Cow.restore sh.sh_store fz
      | None -> ())
    t.shadows;
  t.recs <- snap.sn_recs;
  t.n_recs <- snap.sn_n_recs;
  t.total <- snap.sn_total

let pp_report ppf t =
  let vs = violations t in
  Fmt.pf ppf "@[<v>%d violation record(s), %d violating byte access(es)@,"
    t.n_recs t.total;
  List.iter (fun v -> Fmt.pf ppf "%a@," pp_violation v) vs;
  Fmt.pf ppf "@]"
