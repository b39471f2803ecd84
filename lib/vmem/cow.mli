(** Copy-on-write byte stores: the one rewind rule shared by the
    snapshot layers.

    A store owns one or more equal-length byte layers (a {!Segment}'s
    contents and taint; a sanitizer shadow's states), zero-filled at
    creation, under one dirty map of 256-byte pages. It remembers, by
    physical identity, the frozen copy it is synced to: every page not
    marked since the last sync equals that copy. A new store is synced to
    the all-zero image. Writers call {!mark}; {!freeze} and {!restore}
    are the only sync points, so which pages a rewind writes is decided
    here and nowhere else. *)

type t

type frozen
(** A store's layers as page maps: per 256-byte page either "uniform,
    fill byte c" or a private copy of the page, the private pages packed
    in one byte block. An image costs its non-uniform pages plus a few
    KiB of map, and holds no pointers for the GC to trace. Never written
    after {!freeze} made it, so one may be restored into any store of the
    same shape, on any domain. *)

val make : layers:int -> int -> t
(** [make ~layers len] allocates [layers] zero-filled layers of [len]
    bytes, synced to the all-zero image.
    @raise Invalid_argument when [layers <= 0] or [len < 0]. *)

val layer : t -> int -> Bytes.t
(** [layer t i] is the store's [i]-th layer, the caller's live backing:
    read and write it directly, and {!mark} every write. *)

val mark : t -> int -> int -> unit
(** [mark t off len]: the bytes [[off, off+len)] of some layer were
    written. No-op when [len <= 0]. *)

val freeze : t -> frozen
(** A frozen copy equal to the layers now, after which the store is
    synced to it. Only dirty pages are classified; clean pages keep the
    synced copy's entries. When no page was marked since the last sync,
    this is the copy the store is already synced to. *)

val restore : t -> frozen -> unit
(** Make the layers equal to the frozen copy and sync the store to it.
    Writes exactly the pages that are dirty, whose target entry is
    private, or whose target fill differs from the synced copy's entry;
    when the store is already synced to that very copy, only the dirty
    pages. Uniform pages are written with [Bytes.fill].
    @raise Invalid_argument when the copy has another layer count or
    length. *)
