(** PNASan: an ASan-style shadow-memory oracle over the simulated
    address space.

    Every byte of every mapped segment has a shadow state. The machine
    layers poison and unpoison ranges as objects are allocated, placed,
    freed and framed; the sanitizer observes every checked {!Pna_vmem.Vmem}
    access and records a classified violation the instant an access lands
    on a poisoned byte. It never halts execution — verdicts are produced
    by the same attack checks as an unsanitized run; the sanitizer is a
    parallel oracle whose first recorded violation marks the first
    corrupting access. *)

(** Shadow state of one simulated byte. *)
type state =
  | Addressable  (** ordinary program-visible memory *)
  | Heap_redzone  (** heap space not belonging to any live allocation *)
  | Heap_meta  (** allocator block header bytes *)
  | Freed  (** quarantined payload of a freed block *)
  | Stack_meta  (** live frame return-address / saved-fp / canary slots *)
  | Place_tail  (** bytes an oversize placement-new spills past its arena *)
  | Stale_tail  (** leftover arena bytes past an undersize placement *)
  | Place_guard
      (** guard zone just past a placement arena's end: live neighbour
          memory, flagged only on tainted writes (cross-checked against
          the taint tracker) so exactly-sized placements overflowed by
          construction loops are still caught *)

(** Violation classification, by poisoned state hit and access direction. *)
type kind =
  | Heap_overflow  (** write into {!Heap_redzone} *)
  | Use_after_free  (** read or write of {!Freed} *)
  | Placement_overflow  (** write into {!Place_tail} *)
  | Stack_smash  (** write into {!Stack_meta} *)
  | Meta_write  (** write into {!Heap_meta} *)
  | Stale_read  (** read of {!Stale_tail} — an information leak *)

type violation = {
  v_kind : kind;
  v_addr : int;  (** first faulting byte *)
  v_len : int;  (** contiguous bytes of the same classified access *)
  v_access : Pna_vmem.Fault.access;
  v_taint : bool;  (** the written byte carried attacker taint *)
  v_state : state;  (** shadow state that was hit *)
  v_scenario : string;  (** attack / workload id, "" if unset *)
  v_site : string;  (** statement context, "" if unknown *)
  v_seq : int;  (** detection order, 0-based *)
}

type t

val attach : ?scenario:string -> Pna_vmem.Vmem.t -> t
(** Build a shadow map covering the currently mapped segments (all bytes
    {!Addressable}) and install the access observer. Replaces any
    previously attached observer. *)

val detach : t -> unit
(** Remove the observer; the shadow map and recorded violations remain
    readable. *)

val set_scenario : t -> string -> unit

val set_site : t -> (unit -> string) option -> unit
(** Lazy statement-context thunk; forced only when a violation records. *)

val set_on_violation : t -> (violation -> unit) option -> unit
(** Flight-recorder tap: called once per {e new} violation record — after
    the site thunk is forced, never on byte-wise coalescing — so a black
    box can latch the first corrupting access the instant it happens. *)

val set_on_transition :
  t -> (op:string -> addr:int -> len:int -> state -> unit) option -> unit
(** Called on every shadow-state maintenance call ([op] is ["poison"],
    ["poison-addressable"], ["unpoison"] or ["unpoison-state"]) before
    the range is updated — the flight recorder's shadow-transition
    stream. *)

(** {1 Shadow map maintenance} *)

val guard_len : int
(** Width in bytes of the {!Place_guard} zone a placement lays past its
    arena's end. *)

val poison : t -> addr:int -> len:int -> state -> unit
(** Set the range's shadow state unconditionally. *)

val poison_addressable : t -> addr:int -> len:int -> state -> unit
(** Like {!poison} but only over bytes currently {!Addressable}: marking
    a placement tail must not downgrade frame-meta or allocator-meta
    bytes it overlaps. *)

val unpoison : t -> addr:int -> len:int -> unit

val unpoison_state : t -> addr:int -> len:int -> state -> unit
(** Clear only the range's bytes currently in the given state — a new
    placement erases a neighbour's stale guard zone inside its own
    extent without disturbing frame or allocator poison. *)

val state_at : t -> int -> state
(** Bytes outside the shadow (segments mapped after {!attach}) read as
    {!Addressable}. *)

val shadow_images : t -> (int * Bytes.t) list
(** [(base, states)] per shadow region, sorted by base — one state-code
    byte per simulated byte, the live backing (not a copy). Read-only
    view for equivalence checks (the E19 gate compares it after rewinds);
    mutate through {!poison}/{!unpoison} only, or dirty tracking breaks. *)

(** {1 Check control} *)

val exempt : t -> (unit -> 'a) -> 'a
(** Run a thunk with checks suppressed — for simulator-internal accesses
    (allocator header reads/writes) that are not program behaviour. *)

val seal : t -> unit
(** Stop recording for good: called before verdict checks, which
    legitimately inspect freed and stale memory. *)

val unseal : t -> unit
(** Re-arm recording — a rewound prepared machine starts a fresh run. *)

val sealed : t -> bool

(** {1 Results} *)

val violations : t -> violation list
(** Chronological. Contiguous same-kind byte accesses coalesce into one
    record with [v_len] > 1; the record list is capped, {!total} keeps
    the exact count. *)

val first : t -> violation option
val total : t -> int
(** Exact number of violating byte accesses, including any beyond the
    record cap. *)

val count_by_kind : t -> (kind * int) list
(** Recorded violations per kind, omitting zero kinds. *)

(** {1 Snapshot / restore} *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** Rewind shadow states, recorded violations and sequencing; scenario,
    site thunk, seal and exempt flags are runtime configuration and are
    untouched. Each shadow is a one-layer {!Pna_vmem.Cow} store, so it
    rewinds by the same rule as the memory it shadows: a shadow synced
    to the snapshot's frozen states writes only its dirty pages, any
    other also the pages whose frozen state differs from its synced
    copy's. *)

(** {1 Printing / names} *)

val kind_name : kind -> string
(** Stable lowercase-hyphen id, used as the [kind] label on the
    [pna_san_violations_total] counter. *)

val kind_of_name : string -> kind option
val all_kinds : kind list
val state_name : state -> string
val pp_kind : Format.formatter -> kind -> unit
val pp_state : Format.formatter -> state -> unit
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> t -> unit
