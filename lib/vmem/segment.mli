(** A contiguous region of the simulated address space with per-byte
    contents and attacker-taint. Byte-level accessors here are unchecked;
    use {!Vmem} for permission-checked access. *)

type kind = Text | Data | Bss | Heap | Stack | Mmap

val kind_name : kind -> string

val kind_count : int

val kind_index : kind -> int
(** Dense index in [0, kind_count): declaration order. *)

type t = {
  kind : kind;
  base : int;
  size : int;
  bytes : Bytes.t;
  taint : Bytes.t;
  mutable perm : Perm.t;
  store : Cow.t;
      (** The copy-on-write store that allocated [bytes] and [taint] as
          its two zero-filled layers. Every writer calls {!Cow.mark} on
          the bytes it touched; {!Vmem}'s snapshot and restore freeze and
          rewind the store. *)
}

val create : kind:kind -> base:int -> size:int -> perm:Perm.t -> t
(** @raise Invalid_argument on a non-positive size or negative base. *)

val limit : t -> int
(** One past the last mapped address. *)

val contains : t -> int -> bool

val get_byte : t -> int -> int
(** Unchecked read; the address must be inside the segment. *)

val set_byte : t -> int -> int -> unit
(** Unchecked write of the low 8 bits of the value. *)

val get_taint : t -> int -> bool
val set_taint : t -> int -> bool -> unit

val pp : Format.formatter -> t -> unit
