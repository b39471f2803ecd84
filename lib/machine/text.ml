(** The text (code) image: a symbol table mapping function names to fake
    code addresses and back.

    The simulator never executes machine code; a "function address" is an
    opaque 32-bit value inside the text segment. What matters for the
    attacks is exactly what matters on real hardware: whether a corrupted
    return address / function pointer / vtable slot resolves to a legitimate
    symbol (arc injection, §3.6.2) or to attacker-chosen bytes (code
    injection / crash). *)

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

(* Persistent tables: a snapshot holds the current maps and a restore
   assigns them back. *)
type t = {
  base : int;
  limit : int;
  mutable next : int;
  mutable by_name : int SMap.t;
  mutable by_addr : string IMap.t;
}

(* Each function gets a 16-byte slot, purely for realistic-looking
   addresses. *)
let slot_size = 16

exception Full of { requested : int; used : int }

let create ~base ~size =
  {
    base;
    limit = base + size;
    next = base;
    by_name = SMap.empty;
    by_addr = IMap.empty;
  }

let register t name =
  match SMap.find_opt name t.by_name with
  | Some addr -> addr
  | None ->
    if t.next + slot_size > t.limit then
      raise (Full { requested = slot_size; used = t.next - t.base });
    let addr = t.next in
    t.next <- t.next + slot_size;
    t.by_name <- SMap.add name addr t.by_name;
    t.by_addr <- IMap.add addr name t.by_addr;
    addr

let address t name = SMap.find_opt name t.by_name

let address_exn t name =
  match address t name with
  | Some a -> a
  | None -> Fmt.invalid_arg "Text: unknown symbol %s" name

(* Resolve an address to the symbol whose slot contains it. *)
let symbol_at t addr =
  let slot = addr - ((addr - t.base) mod slot_size) in
  if addr < t.base || addr >= t.limit then None
  else IMap.find_opt slot t.by_addr

type snapshot = {
  sn_next : int;
  sn_by_name : int SMap.t;
  sn_by_addr : string IMap.t;
}

let snapshot t =
  { sn_next = t.next; sn_by_name = t.by_name; sn_by_addr = t.by_addr }

let restore t snap =
  t.next <- snap.sn_next;
  t.by_name <- snap.sn_by_name;
  t.by_addr <- snap.sn_by_addr

let symbols t = List.map (fun (addr, name) -> (name, addr)) (IMap.bindings t.by_addr)
