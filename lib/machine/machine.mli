(** The simulated process: address space + object model + control state.

    Owns the memory image (text/rodata/data/bss/heap/stack), the call stack
    with optional canaries and shadow stack, the in-memory heap allocator,
    the arena registry, the vtable images and the attacker input stream.
    The MiniC++ interpreter drives it; the {!Config} decides which defense
    checks fire. *)

module Config = Pna_defense.Config

type ret_status =
  | Returned
  | Hijacked of { target : int; symbol : string option; tainted : bool }

type dispatch_result =
  | Virtual_ok of string  (** impl symbol found in the vtable slot *)
  | Virtual_hijacked of { target : int; symbol : string option; tainted : bool }

type t

(** {1 Address map (ELF-flavoured constants)} *)

val text_base : int
val rodata_base : int
val data_base : int
val bss_base : int
val heap_base : int
val default_heap_size : int
val stack_top : int
val stack_base : int

(** {1 Lifecycle and accessors} *)

val create : ?heap_size:int -> config:Config.t -> Pna_layout.Layout.env -> t
val config : t -> Config.t
val mem : t -> Pna_vmem.Vmem.t
val env : t -> Pna_layout.Layout.env
val heap_stats : t -> Heap.stats
val arenas : t -> Arena.t
val emit : t -> Event.t -> unit

val set_chaos : t -> Pna_vmem.Vmem.chaos_hook option -> unit
(** Install a byte-level fault-injection hook on the address space. *)

val set_chaos_alloc : t -> (int -> bool) option -> unit
(** Install an allocation fault-injection hook on the heap. *)

val attach_sanitizer : t -> Pna_sanitizer.Sanitizer.t option -> unit
(** Wire a shadow-memory oracle (PNASan) through the machine: heap
    redzones + free quarantine, live frames' control slots, and — from
    here on — frame pushes and placement-new geometry. The sanitizer
    must have been created over this machine's address space
    ({!Pna_sanitizer.Sanitizer.attach} on {!mem}). Pass [None] to
    detach the machine layers (the Vmem observer is the sanitizer's
    own). *)

val sanitizer : t -> Pna_sanitizer.Sanitizer.t option

val events : t -> Event.t list
(** Oldest first. *)

(** {1 Snapshot / restore} *)

type snapshot

val snapshot : t -> snapshot
(** Freeze the whole simulated process: address space (contents, taint,
    permissions, write trace) plus call stack, shadow stack, allocator
    bookkeeping, arena registry, symbol table, segment cursors,
    vtable/global/literal tables and the input/output streams. Taken after
    {!Pna_minicpp.Interp.load}, it lets a serving layer rewind a prepared
    machine between requests instead of rebuilding the image. *)

val restore : t -> snapshot -> unit
(** Rewind to the snapshot. Chaos hooks are cleared: a restored machine
    behaves exactly like a freshly loaded one. Segment and shadow pages
    rewind by the {!Pna_vmem.Cow} rule: a page is written when it is
    dirty, when the snapshot holds it as a private page, or when the
    snapshot's fill byte for it differs from the synced copy's; the
    symbol, vtable, global and literal tables are persistent maps, put
    back by assignment. E19's [rewind] and [replica-rewind] paths check
    that a rewound prepared machine and a rewound thawed replica both
    equal the loaded machine byte for byte. *)

(** {1 Text symbols and vtables} *)

val register_function : t -> string -> int
(** @raise Event.Security_stop as a classified out-of-memory outcome
    when the text segment has no room for another function slot. *)

val function_addr : t -> string -> int
val symbol_at : t -> int -> string option

val emit_vtables : t -> unit
(** Write primary and secondary vtable images into read-only memory. Call
    after all classes are defined and impl symbols registered. *)

val intern_string : ?tainted:bool -> t -> string -> int
(** NUL-terminated, in read-only memory; untainted literals deduplicated. *)

val vtable_addr : t -> string -> int option
(** The class' primary vtable. *)

val class_of_vtable : t -> int -> string option

val install_vptrs : t -> addr:int -> cname:string -> unit
(** Ordinary data writes of the object's vtable pointer(s): later
    overflows can clobber them (§3.8.2). *)

val dispatch : t -> obj_addr:int -> static_class:string -> meth:string -> dispatch_result
(** Virtual dispatch through simulated memory: subobject vptr + slot read.
    Multiple-inheritance calls use the introducing base's vptr and table. *)

(** {1 Globals} *)

val add_global : ?initialized:bool -> t -> string -> Pna_layout.Ctype.t -> int
(** Allocates in data ([initialized]) or bss, registers the arena, returns
    the address. @raise Invalid_argument on duplicates.
    @raise Event.Security_stop as a classified out-of-memory outcome when
    the segment is exhausted. *)

val global : t -> string -> (int * Pna_layout.Ctype.t) option
val global_addr_exn : t -> string -> int

(** {1 Stack frames} *)

val push_frame : t -> func:string -> ret_to:int -> Frame.t
val current_frame : t -> Frame.t
val alloc_local : t -> name:string -> ty:Pna_layout.Ctype.t -> int

val lookup_var : t -> string -> (int * Pna_layout.Ctype.t) option
(** Innermost frame's locals, then globals. *)

val pop_frame : t -> ret_status
(** Verifies the canary (raising {!Event.Security_stop} on a smash),
    checks the shadow stack, records frame-pointer corruption, restores
    sp/fp, and reads the return address back from memory — reporting a
    hijack when it changed. *)

(** {1 Heap} *)

val malloc : t -> int -> int
(** @raise Event.Security_stop with [Out_of_memory] when exhausted. *)

val free : t -> int -> unit

val delete_placed : t -> int -> placed_size:int -> unit
(** Delete through a placement-new pointer: frees only [placed_size] bytes
    (§4.5) unless pool discipline is configured. *)

val leaked_bytes : t -> int

(** {1 Placement new} *)

type placement = { p_addr : int; p_arena : int option }

val placement_new :
  ?cname:string ->
  ?align:int ->
  ?declared:int ->
  t ->
  site:string ->
  addr:int ->
  size:int ->
  placement
(** The primitive under study: emits an audit event and — only when the
    respective defenses are on — bounds-checks against the backing arena
    and/or sanitizes it. Installs vptrs for class placements. [declared]
    is the static extent of the object the place expression names (when
    it names one); only the sanitizer's shadow geometry uses it — the
    defenses see the registered arena, whose blind spots are the point.
    @raise Pna_vmem.Fault.Fault on a null target, or on a misaligned one
    under strict alignment.
    @raise Event.Security_stop when the bounds check blocks it. *)

(** {1 Attacker input and program output} *)

val set_input : ?ints:int list -> ?strings:string list -> t -> unit

val next_int : t -> int
(** 0 at end of input, like a failed [cin]. *)

val next_string : t -> string
(** Empty at end of input. *)

val print : t -> string -> unit

val output : t -> string list
(** Oldest first. *)
