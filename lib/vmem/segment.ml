(** A contiguous region of the simulated address space.

    Each segment owns a byte array for contents and a parallel byte array
    for taint: a byte is tainted when its value was derived from attacker
    input. Taint travels with every copy performed through {!Vmem}, which is
    what lets the attack drivers prove (rather than eyeball) that a saved
    return address or a vtable pointer has become attacker-controlled.
    The two arrays are the layers of one {!Cow} store, which allocates
    them zero-filled, so they rewind together. *)

type kind = Text | Data | Bss | Heap | Stack | Mmap

let kind_name = function
  | Text -> "text"
  | Data -> "data"
  | Bss -> "bss"
  | Heap -> "heap"
  | Stack -> "stack"
  | Mmap -> "mmap"

let kind_count = 6

(* Dense index used by Vmem's per-kind accounting rows. *)
let kind_index = function
  | Text -> 0
  | Data -> 1
  | Bss -> 2
  | Heap -> 3
  | Stack -> 4
  | Mmap -> 5

type t = {
  kind : kind;
  base : int;
  size : int;
  bytes : Bytes.t;
  taint : Bytes.t;
  mutable perm : Perm.t;
  store : Cow.t;  (* owns [bytes] and [taint], in that layer order *)
}

let create ~kind ~base ~size ~perm =
  if size <= 0 then invalid_arg "Segment.create: size must be positive";
  if base < 0 then invalid_arg "Segment.create: negative base";
  let store = Cow.make ~layers:2 size in
  { kind; base; size; bytes = Cow.layer store 0; taint = Cow.layer store 1;
    perm; store }

let limit t = t.base + t.size
let contains t addr = addr >= t.base && addr < limit t

(* Offset of [addr] inside [t]; caller must have checked [contains]. *)
let off t addr = addr - t.base

let get_byte t addr = Char.code (Bytes.get t.bytes (off t addr))

let set_byte t addr v =
  let o = off t addr in
  Bytes.set t.bytes o (Char.chr (v land 0xff));
  Cow.mark t.store o 1

let get_taint t addr = Bytes.get t.taint (off t addr) <> '\000'

let set_taint t addr tainted =
  let o = off t addr in
  Bytes.set t.taint o (if tainted then '\001' else '\000');
  Cow.mark t.store o 1

let pp ppf t =
  Fmt.pf ppf "%-5s [0x%08x, 0x%08x) %a" (kind_name t.kind) t.base (limit t)
    Perm.pp t.perm
