(** Copy-on-write byte stores: the one rewind rule shared by the
    snapshot layers.

    A store holds one or more equal-length byte layers (a {!Segment}'s
    contents and taint; a sanitizer shadow's states) under one dirty map
    of 256-byte pages. It remembers, by physical identity, the frozen
    copy it is synced to: every page not marked since the last sync
    equals that copy. Writers call {!mark}; {!freeze} and {!restore} are
    the only sync points, so the dirty-page rewind and its full-copy
    fallback are decided here and nowhere else. *)

type t

type frozen
(** Private copies of a store's layers. Never written after {!freeze}
    made them, so one may be restored into any store of the same shape,
    on any domain. *)

val create : Bytes.t array -> t
(** [create layers] tracks the given layers, which stay the caller's
    live backing: read and write them directly, and {!mark} every write.
    A new store is synced to nothing.
    @raise Invalid_argument on no layers or layers of unequal length. *)

val mark : t -> int -> int -> unit
(** [mark t off len]: the bytes [[off, off+len)] of some layer were
    written. No-op when [len <= 0]. *)

val freeze : t -> frozen
(** A frozen copy equal to the layers now, after which the store is
    synced to it. When no page was marked since the last sync, this is
    the copy the store is already synced to; no bytes are copied. *)

val restore : t -> frozen -> unit
(** Make the layers equal to the frozen copy and sync the store to it.
    When the store is already synced to that very copy, only the dirty
    page runs are blitted; otherwise every byte is.
    @raise Invalid_argument when the copy has another layer count or
    length. *)
