(** The simulated process: address space + object model + control state.

    This module owns everything a running MiniC++ program touches: the
    memory image (text/data/bss/heap/stack), the call stack with optional
    canaries and shadow stack, the heap allocator, the arena registry, the
    vtable images, and the attacker-controlled input stream. The
    interpreter in [Pna_minicpp] drives it; the defense configuration
    decides which checks fire. *)

open Pna_layout

module Config = Pna_defense.Config
module San = Pna_sanitizer.Sanitizer

type ret_status =
  | Returned
  | Hijacked of { target : int; symbol : string option; tainted : bool }

type dispatch_result =
  | Virtual_ok of string  (** impl symbol found in the vtable slot *)
  | Virtual_hijacked of { target : int; symbol : string option; tainted : bool }

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

type t = {
  mem : Pna_vmem.Vmem.t;
  env : Layout.env;
  config : Config.t;
  text : Text.t;
  heap : Heap.t;
  arenas : Arena.t;
  mutable sp : int;
  mutable fp : int;
  mutable frames : Frame.t list;
  mutable shadow : int list;
  mutable events : Event.t list;  (** newest first *)
  mutable data_cursor : int;
  mutable bss_cursor : int;
  mutable rodata_cursor : int;
  (* Load-time tables, persistent so a snapshot holds them as they are
     and a restore assigns them back. *)
  mutable vtable_addrs : (int * int) list SMap.t;
      (* class -> [(vptr offset, table address)]; offset 0 is primary *)
  mutable vtable_classes : (string * int) IMap.t;
      (* table address -> (class, vptr offset) *)
  mutable globals : (int * Ctype.t) SMap.t;
  mutable literals : int SMap.t;  (** interned untainted strings *)
  mutable input_ints : int list;
  mutable input_strings : string list;
  mutable output : string list;  (** newest first *)
  mutable san : San.t option;  (** attached shadow-memory oracle *)
}

(* Fixed address map, ELF-flavoured (cf. the paper's footnote 3). *)
let text_base = 0x08048000
let text_size = 0x8000
let rodata_base = 0x08050000 (* vtable images *)
let rodata_size = 0x10000
let data_base = 0x08060000
let data_size = 0x10000
let bss_base = 0x08080000
let bss_size = 0x20000
let heap_base = 0x080a0000
let default_heap_size = 0x40000
let stack_top = 0xc0000000
let stack_size = 0x20000
let stack_base = stack_top - stack_size

let create ?(heap_size = default_heap_size) ~config env =
  let mem = Pna_vmem.Vmem.create () in
  let open Pna_vmem in
  ignore (Vmem.map mem ~kind:Segment.Text ~base:text_base ~size:text_size ~perm:Perm.rx);
  ignore (Vmem.map mem ~kind:Segment.Mmap ~base:rodata_base ~size:rodata_size ~perm:Perm.ro);
  ignore (Vmem.map mem ~kind:Segment.Data ~base:data_base ~size:data_size ~perm:Perm.rw);
  ignore (Vmem.map mem ~kind:Segment.Bss ~base:bss_base ~size:bss_size ~perm:Perm.rw);
  ignore (Vmem.map mem ~kind:Segment.Heap ~base:heap_base ~size:heap_size ~perm:Perm.rw);
  ignore
    (Vmem.map mem ~kind:Segment.Stack ~base:stack_base ~size:stack_size
       ~perm:(if config.Config.nx_stack then Perm.rw else Perm.rwx));
  {
    mem;
    env;
    config;
    text = Text.create ~base:text_base ~size:text_size;
    heap = Heap.create mem ~base:heap_base ~size:heap_size;
    arenas = Arena.create ();
    sp = stack_top;
    fp = stack_top;
    frames = [];
    shadow = [];
    events = [];
    data_cursor = data_base;
    bss_cursor = bss_base;
    rodata_cursor = rodata_base;
    vtable_addrs = SMap.empty;
    vtable_classes = IMap.empty;
    globals = SMap.empty;
    literals = SMap.empty;
    input_ints = [];
    input_strings = [];
    output = [];
    san = None;
  }

let arenas t = t.arenas

(* Fault-injection pass-throughs (see [Pna_chaos]): perturb checked memory
   accesses and make selected allocations fail. *)
let set_chaos t hook = Pna_vmem.Vmem.set_chaos t.mem hook
let set_chaos_alloc t hook = Heap.set_chaos_alloc t.heap hook

(* Wire a shadow-memory oracle through every layer that poisons: the
   heap (redzones + quarantine) and, for frames already live at attach
   time, their control slots. The sanitizer itself observes accesses via
   the [Vmem] hook it installed at creation. *)
let attach_sanitizer t san =
  t.san <- san;
  Heap.set_sanitizer t.heap san;
  match san with
  | None -> ()
  | Some s ->
    List.iter
      (fun (f : Frame.t) ->
        let mark slot = San.poison s ~addr:slot ~len:4 San.Stack_meta in
        mark f.Frame.fr_ret_slot;
        Option.iter mark f.Frame.fr_fp_slot;
        Option.iter mark f.Frame.fr_canary_slot)
      t.frames

let sanitizer t = t.san

module Trace = Pna_telemetry.Trace
module Metrics = Pna_telemetry.Metrics

(* Every event is also bridged into the telemetry layer: an instant on
   the current domain's trace track plus a kind-labelled counter in the
   default registry. Gated on the global switch so the hot path pays
   one atomic load when telemetry is off. *)
let emit t e =
  t.events <- e :: t.events;
  if Pna_telemetry.Switch.enabled () then begin
    let kind = Event.kind e in
    Trace.instant ~cat:"machine"
      ~args:[ ("detail", Trace.Str (Event.to_string e)) ]
      kind;
    Metrics.incr
      (Metrics.counter Metrics.default "pna_events_total"
         ~labels:[ ("kind", kind) ])
  end
let events t = List.rev t.events
let config t = t.config
let mem t = t.mem
let env t = t.env
let heap_stats t = Heap.stats t.heap

(* ------------------------------------------------------------------ *)
(* Text symbols and vtables                                            *)

(* Text exhaustion becomes a classified out-of-memory outcome instead of
   an untyped [Failure], matching the rodata/data/bss treatment. *)
let register_function t name =
  try Text.register t.text name
  with Text.Full { requested; used } ->
    let e = Event.Out_of_memory { requested; in_use = used } in
    emit t e;
    raise (Event.Security_stop e)
let function_addr t name = Text.address_exn t.text name
let symbol_at t addr = Text.symbol_at t.text addr

(* Emit the vtable images for every polymorphic class into the read-only
   area. The primary vtable holds the class' merged slot list; every
   polymorphic non-primary base additionally gets a secondary vtable whose
   slots follow the base's own order but point at the derived class'
   (override-resolved) implementations — the Itanium-ABI shape, minus
   thunks. Must be called after all classes are defined and all method
   implementation symbols registered. *)
let emit_vtables t =
  let classes =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.env.Layout.classes []
    |> List.sort compare
  in
  let emit_table cname ~vptr_off slots =
    let addr = t.rodata_cursor in
    t.rodata_cursor <- t.rodata_cursor + (4 * List.length slots);
    t.vtable_classes <- IMap.add addr (cname, vptr_off) t.vtable_classes;
    List.iteri
      (fun i (_, impl) ->
        let fn = register_function t impl in
        Pna_vmem.Vmem.poke_u32 t.mem (addr + (4 * i)) fn)
      slots;
    addr
  in
  List.iter
    (fun cname ->
      let l = Layout.of_class t.env cname in
      if l.Layout.l_vtable <> [] && not (SMap.mem cname t.vtable_addrs) then begin
        let primary = emit_table cname ~vptr_off:0 l.Layout.l_vtable in
        let secondaries =
          List.filter_map
            (fun (b, off) ->
              if off = 0 then None
              else
                let bl = Layout.of_class t.env b in
                if bl.Layout.l_vtable = [] then None
                else
                  (* base slot order, derived (merged-table) impls *)
                  let slots =
                    List.map
                      (fun (m, base_impl) ->
                        ( m,
                          Option.value
                            (List.assoc_opt m l.Layout.l_vtable)
                            ~default:base_impl ))
                      bl.Layout.l_vtable
                  in
                  Some (off, emit_table cname ~vptr_off:off slots))
            l.Layout.l_bases
        in
        t.vtable_addrs <-
          SMap.add cname ((0, primary) :: secondaries) t.vtable_addrs
      end)
    classes

(* Intern a string literal (or attacker-supplied line) into read-only
   memory, NUL-terminated. Untainted literals are deduplicated, like a
   compiler's string pool; tainted strings get a fresh copy per read. *)
let intern_string ?(tainted = false) t s =
  match if tainted then None else SMap.find_opt s t.literals with
  | Some addr -> addr
  | None ->
    let len = String.length s + 1 in
    if t.rodata_cursor + len > rodata_base + rodata_size then begin
      (* reachable from hostile input: every tainted string gets a fresh
         copy, so a chatty attacker can exhaust the pool — terminate as an
         allocation failure, never as a raw exception *)
      let e =
        Event.Out_of_memory
          { requested = len; in_use = t.rodata_cursor - rodata_base }
      in
      emit t e;
      raise (Event.Security_stop e)
    end;
    let addr = t.rodata_cursor in
    t.rodata_cursor <- addr + len;
    Pna_vmem.Vmem.poke_bytes t.mem addr s;
    Pna_vmem.Vmem.poke_u8 t.mem (addr + String.length s) 0;
    if tainted && String.length s > 0 then
      Pna_vmem.Vmem.set_taint t.mem addr (String.length s) true
    else t.literals <- SMap.add s addr t.literals;
    addr

(* The class' primary vtable address. *)
let vtable_addr t cname =
  Option.bind (SMap.find_opt cname t.vtable_addrs) (List.assoc_opt 0)

let class_of_vtable t addr =
  Option.map fst (IMap.find_opt addr t.vtable_classes)

(* Write the hidden vtable pointer(s) of a [cname] object at [addr] — each
   vptr gets the table matching its subobject. The writes are ordinary
   data writes: later overflows can clobber them, which is the §3.8.2
   subterfuge. *)
let install_vptrs t ~addr ~cname =
  let l = Layout.of_class t.env cname in
  match SMap.find_opt cname t.vtable_addrs with
  | None -> ()
  | Some tables ->
    List.iter
      (fun off ->
        let table =
          match List.assoc_opt off tables with
          | Some a -> Some a
          | None -> List.assoc_opt 0 tables
        in
        match table with
        | Some a -> Pna_vmem.Vmem.write_u32 ~tag:"vptr" t.mem (addr + off) a
        | None -> ())
      l.Layout.l_vptrs

let slot_index ~static_class ~meth table =
  let rec idx i = function
    | [] -> Fmt.invalid_arg "dispatch: %s has no virtual %s" static_class meth
    | (m, _) :: rest -> if m = meth then i else idx (i + 1) rest
  in
  idx 0 table

(* Which vptr and which slot a call through [static_class] uses: a method
   introduced by a non-primary base dispatches through that subobject's
   vptr with the slot numbering of the base's own table; everything else
   goes through the primary vptr and the merged table. *)
let dispatch_site t ~static_class ~meth =
  let l = Layout.of_class t.env static_class in
  let primary_table =
    match l.Layout.l_bases with
    | (b, 0) :: _ -> (Layout.of_class t.env b).Layout.l_vtable
    | _ -> []
  in
  if List.mem_assoc meth primary_table then
    (0, slot_index ~static_class ~meth l.Layout.l_vtable)
  else
    let secondary =
      List.find_opt
        (fun (b, off) ->
          off <> 0
          && List.mem_assoc meth (Layout.of_class t.env b).Layout.l_vtable)
        l.Layout.l_bases
    in
    match secondary with
    | Some (b, off) ->
      (off, slot_index ~static_class ~meth (Layout.of_class t.env b).Layout.l_vtable)
    | None ->
      let vptr_off = match l.Layout.l_vptrs with v :: _ -> v | [] -> 0 in
      (vptr_off, slot_index ~static_class ~meth l.Layout.l_vtable)

(* Virtual dispatch: read the vptr of the relevant subobject, then the
   function address from its slot — both straight from simulated memory,
   so a corrupted vptr sends the call wherever the attacker pointed it. *)
let dispatch t ~obj_addr ~static_class ~meth =
  let vptr_off, slot = dispatch_site t ~static_class ~meth in
  let vptr_addr = obj_addr + vptr_off in
  let vptr = Pna_vmem.Vmem.read_u32 t.mem vptr_addr in
  let vptr_tainted = Pna_vmem.Vmem.range_tainted t.mem vptr_addr 4 in
  let known_table = IMap.mem vptr t.vtable_classes in
  let target =
    try Pna_vmem.Vmem.read_u32 t.mem (vptr + (4 * slot))
    with Pna_vmem.Fault.Fault _ -> vptr
  in
  let symbol = symbol_at t target in
  if known_table then
    match symbol with
    | Some impl -> Virtual_ok impl
    | None ->
      (* a real vtable whose slot does not resolve: static type expected a
         larger table than the runtime class provides *)
      Virtual_hijacked { target; symbol = None; tainted = vptr_tainted }
  else begin
    emit t
      (Event.Vptr_hijacked
         { class_ = static_class; addr = obj_addr; actual = vptr; tainted = vptr_tainted });
    Virtual_hijacked { target; symbol; tainted = vptr_tainted }
  end

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)

let align_up x a = (x + a - 1) / a * a

let add_global ?(initialized = false) t name ty =
  if SMap.mem name t.globals then
    Fmt.invalid_arg "Machine.add_global: duplicate global %s" name;
  let size = Layout.sizeof t.env ty in
  let align = max 1 (Layout.alignof t.env ty) in
  (* Segment exhaustion is a classified outcome, not an untyped crash:
     the cursor is left unmoved so the machine stays consistent. *)
  let exhausted ~in_use =
    let e = Event.Out_of_memory { requested = size; in_use } in
    emit t e;
    raise (Event.Security_stop e)
  in
  let addr =
    if initialized then begin
      let a = align_up t.data_cursor align in
      if a + size > data_base + data_size then
        exhausted ~in_use:(t.data_cursor - data_base);
      t.data_cursor <- a + size;
      a
    end
    else begin
      let a = align_up t.bss_cursor align in
      if a + size > bss_base + bss_size then
        exhausted ~in_use:(t.bss_cursor - bss_base);
      t.bss_cursor <- a + size;
      a
    end
  in
  t.globals <- SMap.add name (addr, ty) t.globals;
  Arena.register t.arenas ~base:addr ~size ~origin:(Arena.Global name);
  addr

let global t name = SMap.find_opt name t.globals

let global_addr_exn t name =
  match global t name with
  | Some (addr, _) -> addr
  | None -> Fmt.invalid_arg "Machine: unknown global %s" name

(* ------------------------------------------------------------------ *)
(* Stack frames                                                        *)

let push_u32 ?tag t v =
  t.sp <- t.sp - 4;
  Pna_vmem.Vmem.write_u32 ?tag t.mem t.sp v;
  t.sp

let push_frame t ~func ~ret_to =
  let base = t.sp in
  let ret_slot = push_u32 ~tag:"ret-addr" t ret_to in
  let fp_legit = t.fp in
  let fp_slot =
    if t.config.Config.save_frame_pointer then begin
      let s = push_u32 ~tag:"saved-fp" t t.fp in
      t.fp <- s;
      Some s
    end
    else None
  in
  let canary_slot =
    if t.config.Config.stack_protector then
      Some (push_u32 ~tag:"canary" t t.config.Config.canary_value)
    else None
  in
  if t.config.Config.shadow_stack then t.shadow <- ret_to :: t.shadow;
  let frame =
    Frame.
      {
        fr_func = func;
        fr_base = base;
        fr_ret_slot = ret_slot;
        fr_ret_legit = ret_to;
        fr_fp_slot = fp_slot;
        fr_fp_legit = fp_legit;
        fr_canary_slot = canary_slot;
        fr_locals = [];
      }
  in
  t.frames <- frame :: t.frames;
  (* Shadow the control slots *after* their legitimate writes above: any
     later write to them is a smash. The epilogue reads are unaffected
     (meta bytes only flag on writes). *)
  (match t.san with
  | None -> ()
  | Some s ->
    let mark slot = San.poison s ~addr:slot ~len:4 San.Stack_meta in
    mark ret_slot;
    Option.iter mark fp_slot;
    Option.iter mark canary_slot);
  frame

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> failwith "Machine: no active frame"

let alloc_local t ~name ~ty =
  let frame = current_frame t in
  let size = Layout.sizeof t.env ty in
  let align = max 1 (Layout.alignof t.env ty) in
  let addr = t.sp - size in
  let addr = addr - (addr mod align) in
  t.sp <- addr;
  Arena.register t.arenas ~base:addr ~size
    ~origin:(Arena.Local { func = frame.Frame.fr_func; var = name });
  frame.Frame.fr_locals <-
    Frame.{ lv_name = name; lv_addr = addr; lv_type = ty; lv_size = size }
    :: frame.Frame.fr_locals;
  addr

(* Name lookup: innermost frame's locals, then globals. *)
let lookup_var t name =
  let local =
    match t.frames with
    | [] -> None
    | f :: _ ->
      Option.map
        (fun l -> (l.Frame.lv_addr, l.Frame.lv_type))
        (Frame.find_local f name)
  in
  match local with Some _ -> local | None -> global t name

let pop_frame t =
  let frame = current_frame t in
  (* StackGuard epilogue: verify the canary before using the return slot. *)
  (match frame.Frame.fr_canary_slot with
  | Some slot ->
    let found = Pna_vmem.Vmem.read_u32 t.mem slot in
    if found <> t.config.Config.canary_value then begin
      let e =
        Event.Canary_smashed
          {
            func = frame.Frame.fr_func;
            expected = t.config.Config.canary_value;
            found;
          }
      in
      emit t e;
      raise (Event.Security_stop e)
    end
  | None -> ());
  let ret = Pna_vmem.Vmem.read_u32 t.mem frame.Frame.fr_ret_slot in
  let ret_tainted = Pna_vmem.Vmem.range_tainted t.mem frame.Frame.fr_ret_slot 4 in
  (* Shadow stack: the hardware return-address stack of §5.2. *)
  if t.config.Config.shadow_stack then begin
    match t.shadow with
    | top :: rest ->
      if ret <> top then begin
        let e =
          Event.Shadow_stack_blocked { func = frame.Frame.fr_func; actual = ret }
        in
        emit t e;
        raise (Event.Security_stop e)
      end;
      t.shadow <- rest
    | [] -> ()
  end;
  (* Frame-pointer integrity is recorded but not enforced (Klog's
     one-byte-overwrite paper is related work, not a defense here). *)
  (match frame.Frame.fr_fp_slot with
  | Some slot ->
    let actual = Pna_vmem.Vmem.read_u32 t.mem slot in
    if actual <> frame.Frame.fr_fp_legit then
      emit t
        (Event.Frame_pointer_corrupted
           {
             func = frame.Frame.fr_func;
             legit = frame.Frame.fr_fp_legit;
             actual;
           })
  | None -> ());
  (* Unwind: locals die, registers restored from the bookkeeping copies. *)
  List.iter
    (fun l -> Arena.unregister t.arenas ~base:l.Frame.lv_addr)
    frame.Frame.fr_locals;
  (* The dead frame's whole extent — control slots, locals, and any
     placement-tail marks inside it — reverts to plain stack. *)
  (match t.san with
  | None -> ()
  | Some s ->
    San.unpoison s ~addr:t.sp ~len:(frame.Frame.fr_base - t.sp));
  t.sp <- frame.Frame.fr_base;
  t.fp <- frame.Frame.fr_fp_legit;
  t.frames <- List.tl t.frames;
  if ret <> frame.Frame.fr_ret_legit then begin
    let symbol = symbol_at t ret in
    emit t
      (Event.Return_hijacked
         {
           func = frame.Frame.fr_func;
           legit = frame.Frame.fr_ret_legit;
           actual = ret;
           symbol;
           tainted = ret_tainted;
         });
    Hijacked { target = ret; symbol; tainted = ret_tainted }
  end
  else Returned


(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let malloc t n =
  match Heap.malloc t.heap n with
  | Some addr ->
    Arena.register t.arenas ~base:addr ~size:(Heap.block_size t.heap addr)
      ~origin:Arena.Heap_block;
    addr
  | None ->
    let e =
      Event.Out_of_memory { requested = n; in_use = (Heap.stats t.heap).Heap.in_use }
    in
    emit t e;
    raise (Event.Security_stop e)

let free t addr =
  Arena.unregister t.arenas ~base:addr;
  Heap.free t.heap addr

(* Delete through a pointer produced by placement new over a heap block:
   without pool discipline only the placed object's footprint is released
   (§4.5); with it, the whole block goes. *)
let delete_placed t addr ~placed_size =
  if t.config.Config.placement_delete then begin
    Arena.unregister t.arenas ~base:addr;
    Heap.free t.heap addr
  end
  else begin
    Arena.unregister t.arenas ~base:addr;
    ignore (Heap.free_partial t.heap addr placed_size)
  end

let leaked_bytes t = (Heap.stats t.heap).Heap.leaked

(* ------------------------------------------------------------------ *)
(* Placement new                                                       *)

type placement = { p_addr : int; p_arena : int option }

(* The core primitive of the paper. [size] is the footprint of the object
   or array being placed; [addr] is the attacker- or programmer-supplied
   target. No check happens unless the bounds-check defense is on — that
   asymmetry *is* the vulnerability class. *)
let placement_new ?cname ?(align = 1) ?declared t ~site ~addr ~size =
  if addr = 0 then Pna_vmem.Fault.raise_ Pna_vmem.Fault.Null_placement;
  if t.config.Config.strict_alignment && align > 1 && addr mod align <> 0 then
    Pna_vmem.Fault.raise_ (Pna_vmem.Fault.Misaligned (addr, align));
  let arena = Arena.remaining t.arenas addr in
  emit t (Event.Placement { site; addr; size; arena });
  (if t.config.Config.bounds_check_placement then
     match arena with
     | Some remaining when size > remaining ->
       let e = Event.Bounds_blocked { site; arena = remaining; placed = size } in
       emit t e;
       raise (Event.Security_stop e)
     | Some _ | None -> ());
  if t.config.Config.sanitize_on_place then begin
    (* wipe the remaining arena (not just the new object's footprint, which
       would leave the §4.3 tail bytes) — but never past the arena, whose
       bounds are the only thing the sanitizer knows *)
    match arena with
    | Some len when len > 0 ->
      (try Pna_vmem.Vmem.fill ~tag:"sanitize" t.mem ~dst:addr ~len 0
       with Pna_vmem.Fault.Fault _ -> ());
      emit t (Event.Arena_sanitized { addr; len })
    | Some _ | None -> ()
  end;
  (* Shadow the placement geometry: an oversize placement poisons the
     spill past the arena (any write there is the §3.x overflow); an
     undersize one poisons the leftover arena bytes as stale (any read
     is the §4.3 leak; a write re-initializes the byte). Existing meta
     states take priority — a tail overlapping a frame's control slots
     must keep flagging as a stack smash. *)
  (match (t.san, arena) with
  | Some s, Some remaining ->
    (* The oracle's notion of the storage being reused is the *declared*
       object the place expression names, when that is narrower than the
       registered arena: placing a GradStudent over [&player.stud1]
       overflows at the member's end (§3.4 internal overflow), even
       though the enclosing global's arena has room. Defense checks above
       deliberately keep the arena view — that blind spot is the paper's
       point. *)
    let remaining =
      match declared with Some d -> min remaining d | None -> remaining
    in
    let extent = max size remaining in
    (* this placement owns [addr, addr+extent): a neighbour's guard zone
       reaching into it is obsolete *)
    San.unpoison_state s ~addr ~len:extent San.Place_guard;
    if size > remaining then
      San.poison_addressable s ~addr:(addr + remaining) ~len:(size - remaining)
        San.Place_tail
    else if size < remaining then begin
      (* only bytes still holding data from before the placement can
         leak; the §5.1 remedy (zero the arena before reuse) leaves
         nothing to mark *)
      let stale_byte a =
        match Pna_vmem.Vmem.find_segment t.mem a with
        | Some seg -> Pna_vmem.Segment.get_byte seg a <> 0
        | None -> false
      in
      for a = addr + size to addr + remaining - 1 do
        if stale_byte a then
          San.poison_addressable s ~addr:a ~len:1 San.Stale_tail
      done
    end;
    (* guard zone past the arena: an exactly-sized placement overflowed
       by a construction loop writes here first (§3.2 Listing 6) *)
    San.poison_addressable s ~addr:(addr + extent) ~len:San.guard_len
      San.Place_guard
  | _ -> ());
  (match cname with
  | Some cname -> install_vptrs t ~addr ~cname
  | None -> ());
  { p_addr = addr; p_arena = arena }

(* ------------------------------------------------------------------ *)
(* Attacker input and program output                                   *)

let set_input ?(ints = []) ?(strings = []) t =
  t.input_ints <- ints;
  t.input_strings <- strings

let next_int t =
  match t.input_ints with
  | [] -> 0 (* EOF on cin leaves the variable zero *)
  | v :: rest ->
    t.input_ints <- rest;
    v

let next_string t =
  match t.input_strings with
  | [] -> ""
  | s :: rest ->
    t.input_strings <- rest;
    s

let print t s = t.output <- s :: t.output
let output t = List.rev t.output

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)

(* A full freeze of the simulated process: the address space (via
   [Vmem.snapshot]) plus every piece of out-of-band mutable state — call
   stack, shadow stack, allocator bookkeeping, arena registry, symbol
   table, segment cursors, vtable/global/literal tables, input and output
   streams. Taken right after [Interp.load], it lets a serving layer
   rewind a prepared machine between requests instead of rebuilding the
   image from the program. *)
type snapshot = {
  ms_mem : Pna_vmem.Vmem.snapshot;
  ms_heap : Heap.snapshot;
  ms_text : Text.snapshot;
  ms_arenas : Arena.snapshot;
  ms_sp : int;
  ms_fp : int;
  ms_frames : Frame.t list;
  ms_shadow : int list;
  ms_events : Event.t list;
  ms_data_cursor : int;
  ms_bss_cursor : int;
  ms_rodata_cursor : int;
  ms_vtable_addrs : (int * int) list SMap.t;
  ms_vtable_classes : (string * int) IMap.t;
  ms_globals : (int * Ctype.t) SMap.t;
  ms_literals : int SMap.t;
  ms_input_ints : int list;
  ms_input_strings : string list;
  ms_output : string list;
  ms_san : San.snapshot option;
}

(* Frames carry one mutable field (the locals list); copy the records so
   later [alloc_local]s cannot reach back into the snapshot. *)
let copy_frame (f : Frame.t) = { f with Frame.fr_locals = f.Frame.fr_locals }

let snapshot t =
  {
    ms_mem = Pna_vmem.Vmem.snapshot t.mem;
    ms_heap = Heap.snapshot t.heap;
    ms_text = Text.snapshot t.text;
    ms_arenas = Arena.snapshot t.arenas;
    ms_sp = t.sp;
    ms_fp = t.fp;
    ms_frames = List.map copy_frame t.frames;
    ms_shadow = t.shadow;
    ms_events = t.events;
    ms_data_cursor = t.data_cursor;
    ms_bss_cursor = t.bss_cursor;
    ms_rodata_cursor = t.rodata_cursor;
    ms_vtable_addrs = t.vtable_addrs;
    ms_vtable_classes = t.vtable_classes;
    ms_globals = t.globals;
    ms_literals = t.literals;
    ms_input_ints = t.input_ints;
    ms_input_strings = t.input_strings;
    ms_output = t.output;
    ms_san = Option.map San.snapshot t.san;
  }

(* Rewind the whole process to the snapshot. Chaos hooks are cleared —
   a restored machine must behave exactly like a freshly loaded one, and
   fault injection is re-armed per run by its supervisor. *)
let restore t snap =
  Pna_vmem.Vmem.restore t.mem snap.ms_mem;
  Heap.restore t.heap snap.ms_heap;
  Text.restore t.text snap.ms_text;
  Arena.restore t.arenas snap.ms_arenas;
  t.sp <- snap.ms_sp;
  t.fp <- snap.ms_fp;
  t.frames <- List.map copy_frame snap.ms_frames;
  t.shadow <- snap.ms_shadow;
  t.events <- snap.ms_events;
  t.data_cursor <- snap.ms_data_cursor;
  t.bss_cursor <- snap.ms_bss_cursor;
  t.rodata_cursor <- snap.ms_rodata_cursor;
  t.vtable_addrs <- snap.ms_vtable_addrs;
  t.vtable_classes <- snap.ms_vtable_classes;
  t.globals <- snap.ms_globals;
  t.literals <- snap.ms_literals;
  t.input_ints <- snap.ms_input_ints;
  t.input_strings <- snap.ms_input_strings;
  t.output <- snap.ms_output;
  (* The sanitizer attachment is runtime configuration and survives; its
     shadow states and recorded violations rewind with the memory they
     describe. *)
  (match (t.san, snap.ms_san) with
  | Some s, Some sn -> San.restore s sn
  | _ -> ());
  set_chaos t None;
  set_chaos_alloc t None
