(** The MiniC++ semantic kernel: the exception vocabulary, scalar memory
    access, control-transfer classification, method resolution, the libc
    builtins and the image loader. The bytecode compiler ({!Compile}) and
    VM ({!Vm}) execute programs on top of it. Semantics follow compiled
    C++ where it matters to the paper:

    - no bounds checks on array indexing, pointer arithmetic, string
      builtins or placement new;
    - locals are stack-allocated in declaration order at decreasing
      addresses, below the (optional) canary, saved frame pointer and
      return address;
    - virtual calls go through the in-memory vtable pointer;
    - function returns read the return address back from the stack, so a
      corrupted slot redirects control.

    Abnormal terminations surface as {!Outcome.status} values. *)

open Pna_layout
module Machine = Pna_machine.Machine
module Event = Pna_machine.Event
module Config = Pna_defense.Config
module Vmem = Pna_vmem.Vmem
module Segment = Pna_vmem.Segment

exception Halt of Outcome.status
exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Scalar memory access                                                *)

let load_scalar m addr ty =
  let mem = Machine.mem m in
  let tainted = Vmem.range_tainted mem addr (Ctype.scalar_size ty) in
  match ty with
  | Ctype.Double -> Value.float_ ~ty ~tainted (Vmem.read_f64 mem addr)
  | Ctype.Float ->
    Value.float_ ~ty ~tainted
      (Int32.float_of_bits (Int32.of_int (Vmem.read_u32 mem addr)))
  | Ctype.Char ->
    let b = Vmem.read_u8 mem addr in
    Value.int_ ~ty ~tainted (if b land 0x80 <> 0 then b - 0x100 else b)
  | Ctype.Uchar | Ctype.Bool -> Value.int_ ~ty ~tainted (Vmem.read_u8 mem addr)
  | Ctype.Short ->
    let v = Vmem.read_u16 mem addr in
    Value.int_ ~ty ~tainted (if v land 0x8000 <> 0 then v - 0x10000 else v)
  | Ctype.Ushort -> Value.int_ ~ty ~tainted (Vmem.read_u16 mem addr)
  | Ctype.Int | Ctype.Uint -> Value.int_ ~ty ~tainted (Vmem.read_u32 mem addr)
  | Ctype.Ptr _ | Ctype.Fun_ptr ->
    Value.ptr ~ty ~tainted (Vmem.read_u32 mem addr)
  | Ctype.Void | Ctype.Class _ | Ctype.Array _ ->
    type_error "load of non-scalar %a" Ctype.pp ty

let store_scalar m addr ty v =
  let mem = Machine.mem m in
  let v = Value.coerce ty v in
  let taint = v.Value.tainted in
  match ty with
  | Ctype.Double -> Vmem.write_f64 ~taint mem addr (Value.as_float v)
  | Ctype.Float ->
    Vmem.write_u32 ~taint mem addr
      (Int32.to_int (Int32.bits_of_float (Value.as_float v)) land 0xffffffff)
  | Ctype.Char | Ctype.Uchar | Ctype.Bool ->
    Vmem.write_u8 ~taint mem addr (Value.as_bits v land 0xff)
  | Ctype.Short | Ctype.Ushort ->
    Vmem.write_u16 ~taint mem addr (Value.as_bits v land 0xffff)
  | Ctype.Int | Ctype.Uint | Ctype.Ptr _ | Ctype.Fun_ptr ->
    Vmem.write_u32 ~taint mem addr (Value.as_bits v)
  | Ctype.Void | Ctype.Class _ | Ctype.Array _ ->
    type_error "store of non-scalar %a" Ctype.pp ty

(* ------------------------------------------------------------------ *)
(* Control-transfer classification                                     *)

(* What happens when control reaches [target]? A known symbol is an arc
   injection; a writable segment is code injection (unless NX); anything
   else crashes. Takes the machine (not the interpreter state) so the
   bytecode engine shares the exact classification. *)
let classify m ~via ~target ~symbol ~tainted =
  match symbol with
  | Some s -> Outcome.Arc_injection { via; symbol = s; tainted }
  | None -> (
    match Vmem.find_segment (Machine.mem m) target with
    | None -> Outcome.Crashed (Fmt.str "jump to unmapped address 0x%08x" target)
    | Some seg -> (
      match seg.Segment.kind with
      | Segment.Text | Segment.Mmap ->
        Outcome.Crashed (Fmt.str "jump into non-function bytes at 0x%08x" target)
      | Segment.Data | Segment.Bss | Segment.Heap | Segment.Stack ->
        if (Machine.config m).Config.nx_stack then begin
          Machine.emit m (Event.Nx_blocked { addr = target });
          Outcome.Defense_blocked "nx-stack"
        end
        else Outcome.Code_injection { via; target; tainted }))

(* ------------------------------------------------------------------ *)
(* Method resolution                                                   *)

let rec resolve_method env cname meth =
  let c = Layout.find_class env cname in
  match Class_def.find_method c meth with
  | Some m -> m
  | None -> (
    let rec try_bases = function
      | [] -> type_error "class %s has no method %s" cname meth
      | b :: rest -> (
        try resolve_method env b meth with Type_error _ -> try_bases rest)
    in
    try_bases c.Class_def.c_bases)

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)

let builtin m name argv =
  let mem = Machine.mem m in
  let arg i = List.nth argv i in
  let addr i = Value.as_bits (arg i) in
  match (name, List.length argv) with
  | "strlen", 1 ->
    Some (Some (Value.int_ (String.length (Vmem.read_cstring mem (addr 0)))))
  | "strcpy", 2 ->
    let s = Vmem.read_cstring mem (addr 1) in
    let n = String.length s + 1 in
    Vmem.blit ~tag:"strcpy" mem ~src:(addr 1) ~dst:(addr 0) ~len:n;
    Some (Some (arg 0))
  | "strncpy", 3 ->
    (* size_t semantics: a negative count is a huge unsigned count *)
    let n = Value.as_bits (arg 2) in
    let s = Vmem.read_cstring ~max_len:n mem (addr 1) in
    let copy_len = min n (String.length s) in
    Vmem.blit ~tag:"strncpy" mem ~src:(addr 1) ~dst:(addr 0) ~len:copy_len;
    if copy_len < n then
      Vmem.fill ~tag:"strncpy-pad" mem ~dst:(addr 0 + copy_len) ~len:(n - copy_len) 0;
    Some (Some (arg 0))
  | "memcpy", 3 ->
    Vmem.blit ~tag:"memcpy" mem ~src:(addr 1) ~dst:(addr 0) ~len:(Value.as_bits (arg 2));
    Some (Some (arg 0))
  | "memset", 3 ->
    Vmem.fill ~tag:"memset" mem ~dst:(addr 0) ~len:(Value.as_bits (arg 2))
      (Value.as_bits (arg 1) land 0xff);
    Some (Some (arg 0))
  | "__arena_size", 1 ->
    (* libsafe-style introspection: how many bytes does the allocation
       backing this address still have? 0 when unknown. The hardener emits
       calls to this intrinsic (§5.1 bounds checking as source repair). *)
    let remaining =
      Pna_machine.Arena.remaining (Machine.arenas m) (addr 0)
    in
    Some (Some (Value.int_ (Option.value remaining ~default:0)))
  | "recv", 2 ->
    (* read one raw datagram from the attacker into [dst], up to [maxlen]
       bytes; unlike cin_str the payload may contain NULs. Returns the
       number of bytes written. Every byte is tainted. *)
    let payload = Machine.next_string m in
    let maxlen = Value.as_bits (arg 1) in
    let len = min maxlen (String.length payload) in
    Vmem.write_bytes ~tag:"recv" ~taint:true mem (addr 0)
      (String.sub payload 0 len);
    Some (Some (Value.int_ len))
  | "store", 2 ->
    (* model of "send this memory to persistent storage / the network":
       emits the raw bytes to program output where the driver can observe
       leaked secrets (§4.3) *)
    Machine.print m (Vmem.read_bytes mem (addr 0) (Value.as_bits (arg 1)));
    Some None
  | "exit", 1 -> raise (Halt (Outcome.Exited (Value.as_int (arg 0))))
  | _ -> None

(* The static (name, arity) pairs [builtin] dispatches on — the bytecode
   compiler pre-binds these so calls skip the name scan. Must stay in
   lockstep with the match in [builtin]. *)
let is_builtin name arity =
  match (name, arity) with
  | ("strlen" | "__arena_size" | "exit"), 1 -> true
  | ("strcpy" | "recv" | "store"), 2 -> true
  | ("strncpy" | "memcpy" | "memset"), 3 -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let build_env prog =
  let env = Layout.create_env () in
  List.iter (Layout.define env) prog.Ast.p_classes;
  env

(* Extra attack-target symbols present in every image, standing in for
   libc: the arc-injection listings redirect control to these. *)
let libc_symbols = [ "system"; "execve"; "setuid_root_helper" ]

let load ?heap_size ~config prog =
  Pna_telemetry.Trace.with_span ~cat:"interp" "load" @@ fun () ->
  let env = build_env prog in
  let m = Machine.create ?heap_size ~config env in
  ignore (Machine.register_function m "_start");
  List.iter (fun s -> ignore (Machine.register_function m s)) libc_symbols;
  List.iter
    (fun fn -> ignore (Machine.register_function m fn.Ast.fn_name))
    prog.Ast.p_funcs;
  Machine.emit_vtables m;
  List.iter
    (fun g ->
      let initialized = g.Ast.g_init <> Ast.Zero in
      let addr = Machine.add_global ~initialized m g.Ast.g_name g.Ast.g_type in
      match g.Ast.g_init with
      | Ast.Zero -> ()
      | Ast.Ival v -> store_scalar m addr g.Ast.g_type (Value.int_ v)
      | Ast.Fval v -> store_scalar m addr g.Ast.g_type (Value.float_ v)
      | Ast.Sval s -> Vmem.write_string ~tag:"global-init" (Machine.mem m) addr s)
    prog.Ast.p_globals;
  m
