(** The text (code) image: function names <-> fake code addresses. What
    matters to the attacks is whether corrupted control data resolves to a
    legitimate symbol (arc injection) or not (code injection / crash). *)

type t

val slot_size : int
(** Bytes reserved per function (16). *)

exception Full of { requested : int; used : int }
(** Raised by {!register} when the segment has no room for another slot;
    [Machine.register_function] converts it to a classified
    out-of-memory outcome. *)

val create : base:int -> size:int -> t

val register : t -> string -> int
(** Idempotent: re-registering returns the existing address.
    @raise Full when the text segment is exhausted. *)

val address : t -> string -> int option
val address_exn : t -> string -> int

val symbol_at : t -> int -> string option
(** The symbol whose slot contains the address, if any. *)

val symbols : t -> (string * int) list
(** Sorted by address. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Put back the snapshot's symbol tables. They are persistent maps, so
    this is an assignment, never a copy. *)
