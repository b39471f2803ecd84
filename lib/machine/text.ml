(** The text (code) image: a symbol table mapping function names to fake
    code addresses and back.

    The simulator never executes machine code; a "function address" is an
    opaque 32-bit value inside the text segment. What matters for the
    attacks is exactly what matters on real hardware: whether a corrupted
    return address / function pointer / vtable slot resolves to a legitimate
    symbol (arc injection, §3.6.2) or to attacker-chosen bytes (code
    injection / crash). *)

type t = {
  base : int;
  limit : int;
  mutable next : int;
  by_name : (string, int) Hashtbl.t;
  by_addr : (int, string) Hashtbl.t;
  mutable gen : int;  (* generation token; see [Pna_vmem.Cow.fresh_gen] *)
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
    by_name = Hashtbl.create 32;
    by_addr = Hashtbl.create 32;
    gen = Pna_vmem.Cow.fresh_gen ();
  }

let register t name =
  match Hashtbl.find_opt t.by_name name with
  | Some addr -> addr
  | None ->
    if t.next + slot_size > t.limit then
      raise (Full { requested = slot_size; used = t.next - t.base });
    let addr = t.next in
    t.next <- t.next + slot_size;
    Hashtbl.replace t.by_name name addr;
    Hashtbl.replace t.by_addr addr name;
    t.gen <- Pna_vmem.Cow.fresh_gen ();
    addr

let address t name = Hashtbl.find_opt t.by_name name

let address_exn t name =
  match address t name with
  | Some a -> a
  | None -> Fmt.invalid_arg "Text: unknown symbol %s" name

(* Resolve an address to the symbol whose slot contains it. *)
let symbol_at t addr =
  let slot = addr - ((addr - t.base) mod slot_size) in
  if addr < t.base || addr >= t.limit then None
  else Hashtbl.find_opt t.by_addr slot

type snapshot = {
  sn_next : int;
  sn_by_name : (string, int) Hashtbl.t;
  sn_by_addr : (int, string) Hashtbl.t;
  sn_gen : int;
}

let snapshot t =
  {
    sn_next = t.next;
    sn_by_name = Hashtbl.copy t.by_name;
    sn_by_addr = Hashtbl.copy t.by_addr;
    sn_gen = t.gen;
  }

(* A matching generation token proves the table was not mutated since
   the snapshot ([register] mints a fresh token), so the rebuild can be
   skipped — symbol tables are load-time state, so on the service's
   rewind path this is every time. *)
let restore t snap =
  if t.gen <> snap.sn_gen then begin
    t.next <- snap.sn_next;
    Hashtbl.reset t.by_name;
    Hashtbl.iter (Hashtbl.replace t.by_name) snap.sn_by_name;
    Hashtbl.reset t.by_addr;
    Hashtbl.iter (Hashtbl.replace t.by_addr) snap.sn_by_addr;
    t.gen <- snap.sn_gen
  end

let symbols t =
  Hashtbl.fold (fun name addr acc -> (name, addr) :: acc) t.by_name []
  |> List.sort (fun (_, a) (_, b) -> compare a b)
