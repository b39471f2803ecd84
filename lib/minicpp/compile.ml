(** One-pass compiler from the MiniC++ AST to flat closure-threaded code.

    Each function body becomes an [instr array]: straight-line statements
    are [Do] closures, control flow is flattened to conditional branches
    ([Br]) and jumps ([Jmp]) whose targets are backpatched int refs. The
    compiler resolves what is static at compile time — frame slots for
    locals, sizeofs and alignments, builtin bindings, callee indices,
    constructor overloads — and leaves the rest to closures over the
    {!Interp} kernel.

    Every expression node ticks once and every executed statement ticks
    once, in evaluation order. The step counts, machine events, sanitizer
    observations, taint and outcomes are pinned by E19 against the
    recorded observations of the tree-walking evaluator this compiler
    replaced.

    Compiled units are immutable after {!compile} returns and are shared
    across domains, so nothing in {!t} may be mutated at run time (per-run
    mutable state lives in {!rt}); in particular there are no [Lazy]
    thunks here — OCaml 5 [Lazy] is not domain-safe. *)

open Pna_layout
module Machine = Pna_machine.Machine
module Event = Pna_machine.Event
module Vmem = Pna_vmem.Vmem

(* Compiled-code return. *)
exception Creturn of Value.t option

(* A syntactically non-lvalue expression used where a location is
   required. *)
exception Not_lvalue

type rt = {
  m : Machine.t;
  mem : Vmem.t;  (** [Machine.mem m], cached — the scalar-access hot path *)
  u : t;
  max_steps : int;
  max_depth : int;
  on_stmt : (string -> Ast.stmt -> unit) option;
  on_tick : (int -> unit) option;
  mutable steps : int;
  mutable depth : int;
  mutable pnew_counter : int;
  mutable slots : (int * Ctype.t) option array;
      (** current frame's local cache, indexed by slot; [None] until the
          declaration executes (then {!Machine.lookup_var} decides) *)
  faddr : int array;
      (** per-function return-address cache ([function_addr + 5]), lazily
          filled; index [length u_funcs] is ["_start"] *)
  sizeof_memo : (Ctype.t, int) Hashtbl.t;
  fld_memo : (string * string, Layout.field) Hashtbl.t;
  meth_memo : (string * string, Class_def.meth) Hashtbl.t;
}

and cexpr = rt -> Value.t
and clv = rt -> int * Ctype.t

and instr =
  | Do of (rt -> unit)
  | Br of (rt -> bool) * int ref  (** fall through when true, else jump *)
  | Jmp of int ref

and cfunc = {
  c_name : string;
  c_params : (int * string * Ctype.t) list;  (** slot, name, type *)
  c_nslots : int;
  mutable c_code : instr array;
      (** mutable only for the two-phase build (bodies reference other
          functions by index); frozen once {!compile} returns *)
}

and t = {
  u_prog : Ast.program;
  u_env : Layout.env;
  u_funcs : cfunc array;  (** same order as [p_funcs] *)
  u_index : (string, int) Hashtbl.t;  (** first-wins, like [Ast.find_func] *)
}

let vzero = Value.int_ 0

(* [tick]'s cold half: hook armed or budget crossed. Split out so the
   hot path is one store, one pointer test and one compare, inlinable at
   every call site. *)
let tick_slow rt =
  (match rt.on_tick with Some f -> f rt.steps | None -> ());
  if rt.steps > rt.max_steps then
    raise (Interp.Halt (Outcome.Timeout { steps = rt.steps }))

let[@inline] tick rt =
  rt.steps <- rt.steps + 1;
  if rt.on_tick == None && rt.steps <= rt.max_steps then () else tick_slow rt

(* Scalar sizes need no environment ([Layout.sizeof] delegates them to
   [Ctype.scalar_size]); only aggregates go through the memo table. The
   split keeps pointer arithmetic and array indexing off the structural
   Hashtbl hash. *)
let sizeof_rt rt ty =
  match ty with
  | Ctype.Class _ | Ctype.Array _ -> (
    match Hashtbl.find_opt rt.sizeof_memo ty with
    | Some n -> n
    | None ->
      let n = Layout.sizeof (Machine.env rt.m) ty in
      Hashtbl.add rt.sizeof_memo ty n;
      n)
  | t -> Ctype.scalar_size t

let field_rt rt cname fname =
  let key = (cname, fname) in
  match Hashtbl.find_opt rt.fld_memo key with
  | Some f -> f
  | None ->
    let f = Layout.field_exn (Layout.of_class (Machine.env rt.m) cname) fname in
    Hashtbl.add rt.fld_memo key f;
    f

(* Successes are memoized; failures recompute so the Type_error text is
   re-raised unchanged. *)
let resolve_method_rt rt cname meth =
  let key = (cname, meth) in
  match Hashtbl.find_opt rt.meth_memo key with
  | Some m -> m
  | None ->
    let m = Interp.resolve_method (Machine.env rt.m) cname meth in
    Hashtbl.add rt.meth_memo key m;
    m

let lookup_var_slow rt name =
  match Machine.lookup_var rt.m name with
  | Some loc -> loc
  | None -> Interp.type_error "unbound variable %s" name

(* ------------------------------------------------------------------ *)
(* Fast scalar memory access                                           *)

(* Exactly [Interp.load_scalar], but value and taint come back from one
   packed combined Vmem read (one segment resolution, no intermediate
   allocation) and the result record is built directly. Cold scalar
   shapes — and the non-scalar type error — defer to the kernel's path
   verbatim. *)
let load_fast rt addr (ty : Ctype.t) =
  let mem = rt.mem in
  match ty with
  | Ctype.Int | Ctype.Uint | Ctype.Ptr _ | Ctype.Fun_ptr ->
    let r = Vmem.read_u32_taint mem addr in
    { Value.prim = Value.I (r lsr 1); ty; tainted = r land 1 <> 0 }
  | Ctype.Char ->
    let r = Vmem.read_u8_taint mem addr in
    let b = r lsr 1 in
    let v = if b land 0x80 <> 0 then (b - 0x100) land 0xffffffff else b in
    { Value.prim = Value.I v; ty; tainted = r land 1 <> 0 }
  | Ctype.Uchar | Ctype.Bool ->
    let r = Vmem.read_u8_taint mem addr in
    { Value.prim = Value.I (r lsr 1); ty; tainted = r land 1 <> 0 }
  | Ctype.Short ->
    let r = Vmem.read_u16_taint mem addr in
    let b = r lsr 1 in
    let v = if b land 0x8000 <> 0 then (b - 0x10000) land 0xffffffff else b in
    { Value.prim = Value.I v; ty; tainted = r land 1 <> 0 }
  | Ctype.Ushort ->
    let r = Vmem.read_u16_taint mem addr in
    { Value.prim = Value.I (r lsr 1); ty; tainted = r land 1 <> 0 }
  | Ctype.Double ->
    let f, tainted = Vmem.read_f64_taint mem addr in
    { Value.prim = Value.F f; ty; tainted }
  | Ctype.Float ->
    let r = Vmem.read_u32_taint mem addr in
    {
      Value.prim = Value.F (Int32.float_of_bits (Int32.of_int (r lsr 1)));
      ty;
      tainted = r land 1 <> 0;
    }
  | Ctype.Void | Ctype.Class _ | Ctype.Array _ -> Interp.load_scalar rt.m addr ty

(* Exactly [Interp.store_scalar] (coerce to the location type, write with
   the value's taint), minus the intermediate coerced record. *)
let store_fast rt addr (ty : Ctype.t) (v : Value.t) =
  let mem = rt.mem in
  let taint = v.Value.tainted in
  match ty with
  | Ctype.Int | Ctype.Uint | Ctype.Ptr _ | Ctype.Fun_ptr ->
    let bits =
      match v.Value.prim with
      | Value.I n -> n
      | Value.F f -> int_of_float f land 0xffffffff
    in
    Vmem.write_u32 ~taint mem addr bits
  | Ctype.Char | Ctype.Uchar | Ctype.Bool ->
    let bits =
      match v.Value.prim with
      | Value.I n -> n
      | Value.F f -> int_of_float f land 0xffffffff
    in
    Vmem.write_u8 ~taint mem addr (bits land 0xff)
  | Ctype.Short | Ctype.Ushort ->
    let bits =
      match v.Value.prim with
      | Value.I n -> n
      | Value.F f -> int_of_float f land 0xffffffff
    in
    Vmem.write_u16 ~taint mem addr (bits land 0xffff)
  | Ctype.Double ->
    let f =
      match v.Value.prim with
      | Value.F f -> f
      | Value.I n -> float_of_int (Vmem.to_signed32 n)
    in
    Vmem.write_f64 ~taint mem addr f
  | Ctype.Float ->
    let f =
      match v.Value.prim with
      | Value.F f -> f
      | Value.I n -> float_of_int (Vmem.to_signed32 n)
    in
    Vmem.write_u32 ~taint mem addr
      (Int32.to_int (Int32.bits_of_float f) land 0xffffffff)
  | Ctype.Void | Ctype.Class _ | Ctype.Array _ ->
    Interp.store_scalar rt.m addr ty v

(* ------------------------------------------------------------------ *)
(* The dispatch loop and calls                                         *)

let exec_code rt (code : instr array) =
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    match Array.unsafe_get code !pc with
    | Do f ->
      f rt;
      incr pc
    | Br (c, target) -> if c rt then incr pc else pc := !target
    | Jmp target -> pc := !target
  done

(* The legitimate return address for a frame pushed by [caller]: just past
   the call site, computed from the caller's name. *)
let caller_ret rt caller =
  let a = rt.faddr.(caller) in
  if a >= 0 then a
  else begin
    let name =
      if caller = Array.length rt.u.u_funcs then "_start"
      else rt.u.u_funcs.(caller).c_name
    in
    let a = Machine.function_addr rt.m name + 5 in
    rt.faddr.(caller) <- a;
    a
  end

(* Params are bound left to right until one list runs out, then the
   arity mismatch is reported (the partial application [List.iter2]
   makes). *)
let rec bind_params rt fname params argv =
  match (params, argv) with
  | [], [] -> ()
  | (slot, pname, pty) :: ps, v :: vs ->
    let addr = Machine.alloc_local rt.m ~name:pname ~ty:pty in
    store_fast rt addr pty v;
    rt.slots.(slot) <- Some (addr, pty);
    bind_params rt fname ps vs
  | _ -> Interp.type_error "arity mismatch calling %s" fname

let rec vinvoke rt ~caller fi argv =
  if rt.depth >= rt.max_depth then
    raise (Interp.Halt (Outcome.Crashed "stack overflow (call depth)"));
  let cf = rt.u.u_funcs.(fi) in
  ignore (Machine.push_frame rt.m ~func:cf.c_name ~ret_to:(caller_ret rt caller));
  rt.depth <- rt.depth + 1;
  let saved = rt.slots in
  rt.slots <- Array.make cf.c_nslots None;
  bind_params rt cf.c_name cf.c_params argv;
  let result =
    match exec_code rt cf.c_code with
    | () -> None
    | exception Creturn v -> v
  in
  rt.depth <- rt.depth - 1;
  rt.slots <- saved;
  match Machine.pop_frame rt.m with
  | Machine.Returned -> result
  | Machine.Hijacked { target; symbol; tainted } ->
    raise
      (Interp.Halt
         (Interp.classify rt.m ~via:Outcome.Return_address ~target ~symbol
            ~tainted))

(* Runtime name dispatch (method impls, function-pointer symbols):
   builtins first, then program functions. *)
and call_by_name rt ~caller name argv =
  match Interp.builtin rt.m name argv with
  | Some r -> r
  | None -> (
    match Hashtbl.find_opt rt.u.u_index name with
    | Some fi -> vinvoke rt ~caller fi argv
    | None -> Interp.type_error "call to undefined function %s" name)

(* ------------------------------------------------------------------ *)
(* Strict binary operators                                            *)

let strict_binop rt op (va : Value.t) (vb : Value.t) =
  let tainted = va.Value.tainted || vb.Value.tainted in
  let bool_ c = Value.int_ ~ty:Ctype.Bool ~tainted (if c then 1 else 0) in
  match (op, va.Value.ty, vb.Value.ty) with
  | Ast.Add, Ctype.Ptr el, _ when Ctype.is_integer vb.Value.ty ->
    Value.ptr ~ty:va.Value.ty ~tainted
      (Value.as_bits va + (Value.as_int vb * sizeof_rt rt el))
  | Ast.Add, _, Ctype.Ptr el when Ctype.is_integer va.Value.ty ->
    Value.ptr ~ty:vb.Value.ty ~tainted
      (Value.as_bits vb + (Value.as_int va * sizeof_rt rt el))
  | Ast.Sub, Ctype.Ptr el, _ when Ctype.is_integer vb.Value.ty ->
    Value.ptr ~ty:va.Value.ty ~tainted
      (Value.as_bits va - (Value.as_int vb * sizeof_rt rt el))
  | Ast.Sub, Ctype.Ptr el, Ctype.Ptr _ ->
    Value.int_ ~tainted ((Value.as_bits va - Value.as_bits vb) / sizeof_rt rt el)
  | (Ast.Eq | Ast.Ne), (Ctype.Ptr _ | Ctype.Fun_ptr), _
  | (Ast.Eq | Ast.Ne), _, (Ctype.Ptr _ | Ctype.Fun_ptr) ->
    bool_
      (if op = Ast.Eq then Value.as_bits va = Value.as_bits vb
       else Value.as_bits va <> Value.as_bits vb)
  | _ when Ctype.is_float va.Value.ty || Ctype.is_float vb.Value.ty -> (
    let x = Value.as_float va and y = Value.as_float vb in
    let flt v = Value.float_ ~tainted v in
    match op with
    | Ast.Add -> flt (x +. y)
    | Ast.Sub -> flt (x -. y)
    | Ast.Mul -> flt (x *. y)
    | Ast.Div -> flt (x /. y)
    | Ast.Lt -> bool_ (x < y)
    | Ast.Le -> bool_ (x <= y)
    | Ast.Gt -> bool_ (x > y)
    | Ast.Ge -> bool_ (x >= y)
    | Ast.Eq -> bool_ (x = y)
    | Ast.Ne -> bool_ (x <> y)
    | _ -> Interp.type_error "invalid float operation")
  | _ -> (
    let unsigned = va.Value.ty = Ctype.Uint || vb.Value.ty = Ctype.Uint in
    let x = if unsigned then Value.as_bits va else Value.as_int va in
    let y = if unsigned then Value.as_bits vb else Value.as_int vb in
    let ty = if unsigned then Ctype.Uint else Ctype.Int in
    let num v = Value.int_ ~ty ~tainted v in
    match op with
    | Ast.Add -> num (x + y)
    | Ast.Sub -> num (x - y)
    | Ast.Mul -> num (x * y)
    | Ast.Div ->
      if y = 0 then
        raise (Interp.Halt (Outcome.Crashed "SIGFPE: division by zero"))
      else num (x / y)
    | Ast.Mod ->
      if y = 0 then
        raise (Interp.Halt (Outcome.Crashed "SIGFPE: division by zero"))
      else num (x mod y)
    | Ast.Lt -> bool_ (x < y)
    | Ast.Le -> bool_ (x <= y)
    | Ast.Gt -> bool_ (x > y)
    | Ast.Ge -> bool_ (x >= y)
    | Ast.Eq -> bool_ (x = y)
    | Ast.Ne -> bool_ (x <> y)
    | Ast.Band -> num (x land y)
    | Ast.Bor -> num (x lor y)
    | Ast.Shl -> num (x lsl (y land 31))
    | Ast.Shr -> num ((x land 0xffffffff) lsr (y land 31))
    | Ast.And | Ast.Or ->
      raise
        (Interp.Halt
           (Outcome.Internal_error "logical operator reached strict evaluation")))

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

type ctx = {
  x_u : t;  (** skeleton unit: [u_index]/[u_funcs] valid, bodies pending *)
  x_env : Layout.env;
  x_prog : Ast.program;
  x_funcs : Ast.func array;
  x_self : int;  (** index of the function being compiled (the caller) *)
  x_fname : string;
  x_slots : (string, int) Hashtbl.t;
}

(* Position of a specific [Ast.func] (constructor overloads share a name,
   so the name index is not enough). *)
let func_index ctx fn =
  let rec go i = if ctx.x_funcs.(i) == fn then i else go (i + 1) in
  go 0

(* Can compiling [e] as an lvalue ever raise [Not_lvalue]? Shaped
   lvalues (variables, field/arrow/index/deref chains) never do — their
   failures are [Type_error]s — so sites
   that probe "is this an lvalue?" ([Index] bases, method receivers) can
   skip the exception handler when the shape is static. [Field] recurses
   (its base is compiled as an lvalue); [Arrow]/[Deref]/[Index] evaluate
   their bases as expressions, which cannot raise [Not_lvalue]. *)
let rec shaped_lv = function
  | Ast.Var _ | Ast.Arrow _ | Ast.Index _ | Ast.Deref _ -> true
  | Ast.Field (b, _) -> shaped_lv b
  | Ast.Cast (_, e) -> shaped_lv e
  | _ -> false

(* Static shape of a placement's declared extent: only a literal
   address-of names an object with a definite size; the pointee type
   still comes from the runtime value. *)
let compile_extent place =
  match place with
  | Ast.Addr _ ->
    fun rt (pv : Value.t) -> (
      match pv.Value.ty with
      | Ctype.Ptr ((Ctype.Class _ | Ctype.Array _) as pt) ->
        Some (sizeof_rt rt pt)
      | _ -> None)
  | _ -> fun _ _ -> None

let rec compile_lvalue ctx e : clv =
  match e with
  | Ast.Var name -> (
    match Hashtbl.find_opt ctx.x_slots name with
    | Some slot -> (
      fun rt ->
        match rt.slots.(slot) with
        | Some loc -> loc
        | None -> lookup_var_slow rt name)
    | None -> fun rt -> lookup_var_slow rt name)
  | Ast.Field (base, f) -> (
    let cb = compile_lvalue ctx base in
    fun rt ->
      let addr, ty = cb rt in
      match ty with
      | Ctype.Class c ->
        let fld = field_rt rt c f in
        (addr + fld.Layout.f_offset, fld.Layout.f_type)
      | _ -> Interp.type_error "field access on non-class %a" Ctype.pp ty)
  | Ast.Arrow (p, f) -> (
    let cp = compile_expr ctx p in
    fun rt ->
      let pv = cp rt in
      match pv.Value.ty with
      | Ctype.Ptr (Ctype.Class c) ->
        let fld = field_rt rt c f in
        (Value.as_bits pv + fld.Layout.f_offset, fld.Layout.f_type)
      | ty -> Interp.type_error "-> on non-class-pointer %a" Ctype.pp ty)
  | Ast.Index (base, idx) ->
    let cidx = compile_expr ctx idx in
    let cbase_lv = compile_lvalue ctx base in
    let cbase_ev = compile_expr ctx base in
    let ptr_path rt i =
      let pv = cbase_ev rt in
      match pv.Value.ty with
      | Ctype.Ptr el -> (Value.as_bits pv + (i * sizeof_rt rt el), el)
      | ty -> Interp.type_error "index on non-array %a" Ctype.pp ty
    in
    if shaped_lv base then
      fun rt ->
        let i = Value.as_int (cidx rt) in
        match cbase_lv rt with
        | addr, Ctype.Array (el, _) -> (addr + (i * sizeof_rt rt el), el)
        | _ -> ptr_path rt i
    else
      fun rt ->
        let i = Value.as_int (cidx rt) in
        (match (try Some (cbase_lv rt) with Not_lvalue -> None) with
        | Some (addr, Ctype.Array (el, _)) -> (addr + (i * sizeof_rt rt el), el)
        | _ -> ptr_path rt i)
  | Ast.Deref p -> (
    let cp = compile_expr ctx p in
    fun rt ->
      let pv = cp rt in
      match pv.Value.ty with
      | Ctype.Ptr el -> (Value.as_bits pv, el)
      | ty -> Interp.type_error "deref of non-pointer %a" Ctype.pp ty)
  | Ast.Cast (ty, e) ->
    let ce = compile_lvalue ctx e in
    fun rt ->
      let addr, _ = ce rt in
      (addr, ty)
  | _ -> fun _ -> raise Not_lvalue

and compile_expr ctx e : cexpr =
  match e with
  | Ast.Int n ->
    let v = Value.int_ n in
    fun rt ->
      tick rt;
      v
  | Ast.Flt f ->
    let v = Value.float_ f in
    fun rt ->
      tick rt;
      v
  | Ast.Str s ->
    fun rt ->
      tick rt;
      Value.ptr ~ty:(Ctype.Ptr Ctype.Char) (Machine.intern_string rt.m s)
  | Ast.Nullptr ->
    fun rt ->
      tick rt;
      Value.null
  | Ast.Cin ->
    fun rt ->
      tick rt;
      Value.int_ ~tainted:true (Machine.next_int rt.m)
  | Ast.Cin_str ->
    fun rt ->
      tick rt;
      let s = Machine.next_string rt.m in
      Value.ptr ~ty:(Ctype.Ptr Ctype.Char) ~tainted:true
        (Machine.intern_string ~tainted:true rt.m s)
  | Ast.Sizeof ty ->
    let v = Value.int_ ~ty:Ctype.Uint (Layout.sizeof ctx.x_env ty) in
    fun rt ->
      tick rt;
      v
  | Ast.Fun_addr f ->
    fun rt ->
      tick rt;
      Value.ptr ~ty:Ctype.Fun_ptr (Machine.function_addr rt.m f)
  | Ast.Addr e ->
    let clv = compile_lvalue ctx e in
    fun rt ->
      tick rt;
      let addr, ty = clv rt in
      Value.ptr ~ty:(Ctype.Ptr ty) addr
  | Ast.Var _ | Ast.Field _ | Ast.Arrow _ | Ast.Index _ | Ast.Deref _ -> (
    let clv = compile_lvalue ctx e in
    fun rt ->
      tick rt;
      let addr, ty = clv rt in
      match ty with
      | Ctype.Class _ -> Value.ptr ~ty:(Ctype.Ptr ty) addr
      | Ctype.Array (el, _) -> Value.ptr ~ty:(Ctype.Ptr el) addr
      | _ -> load_fast rt addr ty)
  | Ast.Un (op, e) -> compile_unop ctx op e
  | Ast.Bin (op, a, b) -> compile_binop ctx op a b
  | Ast.Cast (ty, e) -> (
    let ce = compile_expr ctx e in
    match ty with
    | Ctype.Float | Ctype.Double ->
      fun rt ->
        tick rt;
        Value.coerce ty (ce rt)
    | _ ->
      (* retype-after-coerce collapses to one record: coerce to a
         non-float type yields an [I] prim and the retype re-stamps the
         same [ty]. *)
      fun rt ->
        tick rt;
        let v = ce rt in
        let bits =
          match v.Value.prim with
          | Value.I n -> n
          | Value.F f -> int_of_float f land 0xffffffff
        in
        { Value.prim = Value.I bits; ty; tainted = v.Value.tainted })
  | Ast.Call (name, args) -> (
    let cargs = List.map (compile_expr ctx) args in
    if Interp.is_builtin name (List.length args) then
      fun rt ->
        tick rt;
        let argv = List.map (fun ce -> ce rt) cargs in
        match Interp.builtin rt.m name argv with
        | Some (Some v) -> v
        | Some None -> vzero
        | None -> (
          (* unreachable while [is_builtin] stays in lockstep; fall back to
             the full runtime dispatch order *)
          match call_by_name rt ~caller:ctx.x_self name argv with
          | Some v -> v
          | None -> vzero)
    else
      match Hashtbl.find_opt ctx.x_u.u_index name with
      | Some fi ->
        fun rt ->
          tick rt;
          let argv = List.map (fun ce -> ce rt) cargs in
          (match vinvoke rt ~caller:ctx.x_self fi argv with
          | Some v -> v
          | None -> vzero)
      | None ->
        (* the arguments are evaluated before failing *)
        fun rt ->
          tick rt;
          let _argv = List.map (fun ce -> ce rt) cargs in
          Interp.type_error "call to undefined function %s" name)
  | Ast.Mcall (obj, meth, args) ->
    let cobj_lv = compile_lvalue ctx obj in
    let cobj_ev = compile_expr ctx obj in
    let cargs = List.map (compile_expr ctx) args in
    let self = ctx.x_self in
    let obj_shaped = shaped_lv obj in
    fun rt ->
      tick rt;
      let obj_addr, cname =
        let lv =
          if obj_shaped then Some (cobj_lv rt)
          else try Some (cobj_lv rt) with Not_lvalue -> None
        in
        match lv with
        | Some (addr, Ctype.Class c) -> (addr, c)
        | _ -> (
          let pv = cobj_ev rt in
          match pv.Value.ty with
          | Ctype.Ptr (Ctype.Class c) -> (Value.as_bits pv, c)
          | ty -> Interp.type_error "method call on %a" Ctype.pp ty)
      in
      let mdef = resolve_method_rt rt cname meth in
      let this = Value.ptr ~ty:(Ctype.Ptr (Ctype.Class cname)) obj_addr in
      let argv = List.map (fun ce -> ce rt) cargs in
      let res =
        if mdef.Class_def.m_virtual then
          match Machine.dispatch rt.m ~obj_addr ~static_class:cname ~meth with
          | Machine.Virtual_ok impl -> call_by_name rt ~caller:self impl (this :: argv)
          | Machine.Virtual_hijacked { target; symbol; tainted } ->
            raise
              (Interp.Halt
                 (Interp.classify rt.m ~via:Outcome.Vtable ~target ~symbol
                    ~tainted))
        else call_by_name rt ~caller:self mdef.Class_def.m_impl (this :: argv)
      in
      (match res with Some v -> v | None -> vzero)
  | Ast.Fpcall (f, args) -> (
    let cf = compile_expr ctx f in
    let cargs = List.map (compile_expr ctx) args in
    let self = ctx.x_self in
    fun rt ->
      tick rt;
      let fv = cf rt in
      let target = Value.as_bits fv in
      let tainted = fv.Value.tainted in
      if target = 0 then
        raise (Interp.Halt (Outcome.Crashed "call through null function pointer"));
      let symbol = Machine.symbol_at rt.m target in
      if tainted then begin
        Machine.emit rt.m
          (Event.Fun_ptr_hijacked
             { name = "<indirect>"; actual = target; symbol; tainted });
        raise
          (Interp.Halt
             (Interp.classify rt.m ~via:Outcome.Function_pointer ~target ~symbol
                ~tainted))
      end
      else
        match symbol with
        | Some s when Hashtbl.mem rt.u.u_index s -> (
          let argv = List.map (fun ce -> ce rt) cargs in
          match call_by_name rt ~caller:self s argv with
          | Some v -> v
          | None -> vzero)
        | Some s ->
          raise
            (Interp.Halt
               (Outcome.Arc_injection
                  { via = Outcome.Function_pointer; symbol = s; tainted }))
        | None ->
          raise
            (Interp.Halt
               (Interp.classify rt.m ~via:Outcome.Function_pointer ~target
                  ~symbol ~tainted)))
  | Ast.New (ty, args) -> (
    let size = Layout.sizeof ctx.x_env ty in
    match ty with
    | Ctype.Class cname ->
      let cons = compile_construct ctx cname args in
      fun rt ->
        tick rt;
        let addr = Machine.malloc rt.m size in
        Machine.install_vptrs rt.m ~addr ~cname;
        cons rt addr;
        Value.ptr ~ty:(Ctype.Ptr ty) addr
    | _ ->
      fun rt ->
        tick rt;
        Value.ptr ~ty:(Ctype.Ptr ty) (Machine.malloc rt.m size))
  | Ast.New_arr (ty, n) ->
    let elsize = Layout.sizeof ctx.x_env ty in
    let cn = compile_expr ctx n in
    fun rt ->
      tick rt;
      let count = Value.as_int (cn rt) in
      if count <= 0 then
        raise (Interp.Halt (Outcome.Crashed "std::bad_alloc (array size)"));
      Value.ptr ~ty:(Ctype.Ptr ty) (Machine.malloc rt.m (count * elsize))
  | Ast.Pnew (place, ty, args) ->
    let cplace = compile_expr ctx place in
    let size = Layout.sizeof ctx.x_env ty in
    let align = Layout.alignof ctx.x_env ty in
    let cname = match ty with Ctype.Class c -> Some c | _ -> None in
    let extent = compile_extent place in
    let cons =
      match cname with Some c -> Some (compile_construct ctx c args) | None -> None
    in
    let fname = ctx.x_fname in
    fun rt ->
      tick rt;
      let pv = cplace rt in
      let addr = Value.as_bits pv in
      rt.pnew_counter <- rt.pnew_counter + 1;
      let site = Fmt.str "%s#pnew%d" fname rt.pnew_counter in
      ignore
        (Machine.placement_new ?cname ~align ?declared:(extent rt pv) rt.m ~site
           ~addr ~size);
      (match cons with Some k -> k rt addr | None -> ());
      Value.ptr ~ty:(Ctype.Ptr ty) addr
  | Ast.Pnew_arr (place, ty, n) ->
    let cplace = compile_expr ctx place in
    let cn = compile_expr ctx n in
    let elsize = Layout.sizeof ctx.x_env ty in
    let align = Layout.alignof ctx.x_env ty in
    let extent = compile_extent place in
    let fname = ctx.x_fname in
    fun rt ->
      tick rt;
      let pv = cplace rt in
      let addr = Value.as_bits pv in
      let count = Value.as_int (cn rt) in
      let size = count * elsize in
      if size < 0 then
        raise (Interp.Halt (Outcome.Crashed "std::bad_alloc (array size)"));
      rt.pnew_counter <- rt.pnew_counter + 1;
      let site = Fmt.str "%s#pnew%d" fname rt.pnew_counter in
      ignore
        (Machine.placement_new ~align ?declared:(extent rt pv) rt.m ~site ~addr
           ~size);
      Value.ptr ~ty:(Ctype.Ptr ty) addr

and compile_unop ctx op e =
  match op with
  | Ast.Neg ->
    let ce = compile_expr ctx e in
    fun rt ->
      tick rt;
      let v = ce rt in
      if Ctype.is_float v.Value.ty then
        Value.float_ ~ty:v.Value.ty ~tainted:v.Value.tainted (-.Value.as_float v)
      else Value.int_ ~ty:v.Value.ty ~tainted:v.Value.tainted (-Value.as_int v)
  | Ast.Not ->
    let ce = compile_expr ctx e in
    fun rt ->
      tick rt;
      let v = ce rt in
      Value.int_ ~ty:Ctype.Bool ~tainted:v.Value.tainted
        (if Value.truthy v then 0 else 1)
  | Ast.Preinc | Ast.Predec ->
    let clv = compile_lvalue ctx e in
    let delta = if op = Ast.Preinc then 1 else -1 in
    fun rt ->
      tick rt;
      let addr, ty = clv rt in
      let v = load_fast rt addr ty in
      let v' =
        match ty with
        | Ctype.Ptr el ->
          Value.ptr ~ty ~tainted:v.Value.tainted
            (Value.as_bits v + (delta * sizeof_rt rt el))
        | t when Ctype.is_float t ->
          Value.float_ ~ty ~tainted:v.Value.tainted
            (Value.as_float v +. float_of_int delta)
        | _ -> Value.int_ ~ty ~tainted:v.Value.tainted (Value.as_int v + delta)
      in
      store_fast rt addr ty v';
      v'

and compile_binop ctx op a b =
  let ca = compile_expr ctx a in
  let cb = compile_expr ctx b in
  match op with
  | Ast.And ->
    fun rt ->
      tick rt;
      let va = ca rt in
      if not (Value.truthy va) then
        Value.int_ ~ty:Ctype.Bool ~tainted:va.Value.tainted 0
      else
        let vb = cb rt in
        Value.int_ ~ty:Ctype.Bool
          ~tainted:(va.Value.tainted || vb.Value.tainted)
          (if Value.truthy vb then 1 else 0)
  | Ast.Or ->
    fun rt ->
      tick rt;
      let va = ca rt in
      if Value.truthy va then
        Value.int_ ~ty:Ctype.Bool ~tainted:va.Value.tainted 1
      else
        let vb = cb rt in
        Value.int_ ~ty:Ctype.Bool
          ~tainted:(va.Value.tainted || vb.Value.tainted)
          (if Value.truthy vb then 1 else 0)
  | _ ->
    (* The op is fixed at compile time, so stage an int/int fast path per
       operator: when both operands are plain [Int] the strict table above
       reduces to signed 32-bit arithmetic with taint OR-ed — the operand
       bits are extracted by one pattern match and the result record built
       directly. Any other pairing (pointers, floats, unsigned promotion)
       falls back to [strict_binop], the transliterated reference. *)
    (* A literal right operand ([i < N], [i + 1], [x & mask]) is staged at
       compile time: its tick still fires in evaluation order, but no
       closure call or operand match is paid for it. *)
    let const_b =
      match b with Ast.Int k -> Some (Value.int_ k) | _ -> None
    in
    let arith (f : int -> int -> int) : cexpr =
      match const_b with
      | Some vk ->
        let kb = match vk.Value.prim with Value.I n -> n | Value.F _ -> 0 in
        fun rt ->
          tick rt;
          let va = ca rt in
          tick rt;
          (match va with
          | { Value.prim = Value.I x; ty = Ctype.Int; tainted } ->
            { Value.prim = Value.I (f x kb); ty = Ctype.Int; tainted }
          | _ -> strict_binop rt op va vk)
      | None -> (
        fun rt ->
          tick rt;
          let va = ca rt in
          let vb = cb rt in
          match (va, vb) with
          | ( { Value.prim = Value.I x; ty = Ctype.Int; tainted = ta },
              { Value.prim = Value.I y; ty = Ctype.Int; tainted = tb } ) ->
            { Value.prim = Value.I (f x y); ty = Ctype.Int; tainted = ta || tb }
          | _ -> strict_binop rt op va vb)
    in
    let cmp (f : int -> int -> bool) : cexpr =
      match const_b with
      | Some vk ->
        let kb = match vk.Value.prim with Value.I n -> n | Value.F _ -> 0 in
        fun rt ->
          tick rt;
          let va = ca rt in
          tick rt;
          (match va with
          | { Value.prim = Value.I x; ty = Ctype.Int; tainted } ->
            {
              Value.prim = Value.I (if f x kb then 1 else 0);
              ty = Ctype.Bool;
              tainted;
            }
          | _ -> strict_binop rt op va vk)
      | None -> (
        fun rt ->
          tick rt;
          let va = ca rt in
          let vb = cb rt in
          match (va, vb) with
          | ( { Value.prim = Value.I x; ty = Ctype.Int; tainted = ta },
              { Value.prim = Value.I y; ty = Ctype.Int; tainted = tb } ) ->
            {
              Value.prim = Value.I (if f x y then 1 else 0);
              ty = Ctype.Bool;
              tainted = ta || tb;
            }
          | _ -> strict_binop rt op va vb)
    in
    let s = Vmem.to_signed32 in
    let sigfpe () =
      raise (Interp.Halt (Outcome.Crashed "SIGFPE: division by zero"))
    in
    match op with
    | Ast.Add -> arith (fun x y -> (x + y) land 0xffffffff)
    | Ast.Sub -> arith (fun x y -> (x - y) land 0xffffffff)
    | Ast.Mul -> arith (fun x y -> s x * s y land 0xffffffff)
    | Ast.Div ->
      arith (fun x y ->
          let y = s y in
          if y = 0 then sigfpe () else s x / y land 0xffffffff)
    | Ast.Mod ->
      arith (fun x y ->
          let y = s y in
          if y = 0 then sigfpe () else s x mod y land 0xffffffff)
    | Ast.Lt -> cmp (fun x y -> s x < s y)
    | Ast.Le -> cmp (fun x y -> s x <= s y)
    | Ast.Gt -> cmp (fun x y -> s x > s y)
    | Ast.Ge -> cmp (fun x y -> s x >= s y)
    | Ast.Eq -> cmp (fun x y -> x = y)
    | Ast.Ne -> cmp (fun x y -> x <> y)
    | Ast.Band -> arith (fun x y -> x land y)
    | Ast.Bor -> arith (fun x y -> x lor y)
    | Ast.Shl -> arith (fun x y -> x lsl (y land 31) land 0xffffffff)
    | Ast.Shr -> arith (fun x y -> x lsr (y land 31))
    | Ast.And | Ast.Or ->
      fun rt ->
        tick rt;
        let va = ca rt in
        let vb = cb rt in
        strict_binop rt op va vb

(* Constructor call at [addr]: overload resolution (by arity, against the
   physical [p_funcs] entry) and the implicit-copy fallback are decided at
   compile time; argument evaluation stays runtime. *)
and compile_construct ctx cname args =
  match Ast.find_ctor ctx.x_prog cname ~arity:(List.length args) with
  | Some ctor ->
    let fi = func_index ctx ctor in
    let cargs = List.map (compile_expr ctx) args in
    let self = ctx.x_self in
    fun rt addr ->
      let this = Value.ptr ~ty:(Ctype.Ptr (Ctype.Class cname)) addr in
      let argv = List.map (fun ce -> ce rt) cargs in
      ignore (vinvoke rt ~caller:self fi (this :: argv))
  | None -> (
    match args with
    | [] -> fun _ _ -> ()
    | [ arg ] -> (
      let carg = compile_expr ctx arg in
      let size = Layout.sizeof ctx.x_env (Ctype.Class cname) in
      fun rt addr ->
        let v = carg rt in
        match v.Value.ty with
        | Ctype.Ptr (Ctype.Class _) | Ctype.Ptr Ctype.Void ->
          Vmem.blit ~tag:"copy-ctor" (Machine.mem rt.m) ~src:(Value.as_bits v)
            ~dst:addr ~len:size;
          Machine.install_vptrs rt.m ~addr ~cname
        | ty -> Interp.type_error "no constructor %s(%a)" cname Ctype.pp ty)
    | args ->
      let n = List.length args in
      fun _ _ -> Interp.type_error "no %d-argument constructor for %s" n cname)

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)

(* Class- and char-array-typed stores: the location's type is runtime
   (it may come from a cast or a looked-up variable), so the dispatch is
   too. *)
and compile_assign ctx e =
  let ce = compile_expr ctx e in
  fun rt (addr, ty) ->
    match ty with
    | Ctype.Class _ -> (
      let v = ce rt in
      match v.Value.ty with
      | Ctype.Ptr (Ctype.Class _) | Ctype.Ptr Ctype.Void ->
        Vmem.blit ~tag:"class-assign" (Machine.mem rt.m) ~src:(Value.as_bits v)
          ~dst:addr ~len:(sizeof_rt rt ty)
      | vty -> Interp.type_error "cannot assign %a to class lvalue" Ctype.pp vty)
    | Ctype.Array (Ctype.Char, n) -> (
      let v = ce rt in
      match v.Value.ty with
      | Ctype.Ptr Ctype.Char ->
        let s = Vmem.read_cstring (Machine.mem rt.m) (Value.as_bits v) in
        let len = min n (String.length s + 1) in
        Vmem.blit ~tag:"arr-init" (Machine.mem rt.m) ~src:(Value.as_bits v)
          ~dst:addr ~len
      | vty ->
        Interp.type_error "cannot initialize char array from %a" Ctype.pp vty)
    | _ -> store_fast rt addr ty (ce rt)

(* A branch condition: the engine only needs the truth of the value, so
   comparisons on plain ints skip building the [Bool] record entirely —
   same ticks, same operand evaluation, same fallbacks. *)
and compile_test ctx e : rt -> bool =
  match e with
  | Ast.Bin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
    ->
    let ca = compile_expr ctx a in
    let cmp : int -> int -> bool =
      let s = Vmem.to_signed32 in
      match op with
      | Ast.Lt -> fun x y -> s x < s y
      | Ast.Le -> fun x y -> s x <= s y
      | Ast.Gt -> fun x y -> s x > s y
      | Ast.Ge -> fun x y -> s x >= s y
      | Ast.Eq -> fun x y -> x = y
      | Ast.Ne -> fun x y -> x <> y
      | _ -> assert false
    in
    (match b with
    | Ast.Int k ->
      let vk = Value.int_ k in
      let kb = match vk.Value.prim with Value.I n -> n | Value.F _ -> 0 in
      fun rt ->
        tick rt;
        let va = ca rt in
        tick rt;
        (match va with
        | { Value.prim = Value.I x; ty = Ctype.Int; _ } -> cmp x kb
        | _ -> Value.truthy (strict_binop rt op va vk))
    | _ ->
      let cb = compile_expr ctx b in
      fun rt ->
        tick rt;
        let va = ca rt in
        let vb = cb rt in
        (match (va, vb) with
        | ( { Value.prim = Value.I x; ty = Ctype.Int; _ },
            { Value.prim = Value.I y; ty = Ctype.Int; _ } ) ->
          cmp x y
        | _ -> Value.truthy (strict_binop rt op va vb)))
  | _ ->
    let ce = compile_expr ctx e in
    fun rt -> Value.truthy (ce rt)

type emitter = { mutable e_rev : instr list; mutable e_n : int }

let emit em i =
  em.e_rev <- i :: em.e_rev;
  em.e_n <- em.e_n + 1

let rec compile_stmt ctx em s =
  let fname = ctx.x_fname in
  let step rt =
    tick rt;
    match rt.on_stmt with Some f -> f fname s | None -> ()
  in
  match s with
  | Ast.Decl (name, ty, init) -> (
    let slot = Hashtbl.find ctx.x_slots name in
    match init with
    | None ->
      emit em
        (Do
           (fun rt ->
             step rt;
             let addr = Machine.alloc_local rt.m ~name ~ty in
             rt.slots.(slot) <- Some (addr, ty)))
    | Some e ->
      let asg = compile_assign ctx e in
      emit em
        (Do
           (fun rt ->
             step rt;
             let addr = Machine.alloc_local rt.m ~name ~ty in
             rt.slots.(slot) <- Some (addr, ty);
             asg rt (addr, ty))))
  | Ast.Decl_obj (name, cname, args) ->
    let slot = Hashtbl.find ctx.x_slots name in
    let ty = Ctype.Class cname in
    let cons = compile_construct ctx cname args in
    emit em
      (Do
         (fun rt ->
           step rt;
           let addr = Machine.alloc_local rt.m ~name ~ty in
           rt.slots.(slot) <- Some (addr, ty);
           Machine.install_vptrs rt.m ~addr ~cname;
           cons rt addr))
  | Ast.Assign (lv, e) -> (
    let asg = compile_assign ctx e in
    match lv with
    | Ast.Var name when Hashtbl.mem ctx.x_slots name ->
      (* the common store-to-local: read the slot inline instead of
         through the generic lvalue closure *)
      let slot = Hashtbl.find ctx.x_slots name in
      emit em
        (Do
           (fun rt ->
             step rt;
             let loc =
               match rt.slots.(slot) with
               | Some loc -> loc
               | None -> lookup_var_slow rt name
             in
             asg rt loc))
    | _ ->
      let clv = compile_lvalue ctx lv in
      emit em
        (Do
           (fun rt ->
             step rt;
             asg rt (clv rt))))
  | Ast.Expr e ->
    let ce = compile_expr ctx e in
    emit em
      (Do
         (fun rt ->
           step rt;
           ignore (ce rt)))
  | Ast.If (c, t, f) -> (
    let cc = compile_test ctx c in
    emit em (Do step);
    let else_ref = ref (-1) in
    emit em (Br (cc, else_ref));
    compile_block ctx em t;
    match f with
    | [] -> else_ref := em.e_n
    | _ ->
      let end_ref = ref (-1) in
      emit em (Jmp end_ref);
      else_ref := em.e_n;
      compile_block ctx em f;
      end_ref := em.e_n)
  | Ast.While (c, body) ->
    let cc = compile_test ctx c in
    emit em (Do step);
    let head = em.e_n in
    let exit_ref = ref (-1) in
    emit em (Br (cc, exit_ref));
    compile_block ctx em body;
    emit em (Jmp (ref head));
    exit_ref := em.e_n
  | Ast.For (init, c, stp, body) ->
    let cc = compile_test ctx c in
    emit em (Do step);
    Option.iter (compile_stmt ctx em) init;
    let head = em.e_n in
    let exit_ref = ref (-1) in
    emit em (Br (cc, exit_ref));
    compile_block ctx em body;
    Option.iter (compile_stmt ctx em) stp;
    emit em (Jmp (ref head));
    exit_ref := em.e_n
  | Ast.Return e -> (
    match e with
    | None ->
      emit em
        (Do
           (fun rt ->
             step rt;
             raise (Creturn None)))
    | Some e ->
      let ce = compile_expr ctx e in
      emit em
        (Do
           (fun rt ->
             step rt;
             raise (Creturn (Some (ce rt))))))
  | Ast.Delete e ->
    let ce = compile_expr ctx e in
    emit em
      (Do
         (fun rt ->
           step rt;
           Machine.free rt.m (Value.as_bits (ce rt))))
  | Ast.Delete_placed (e, ty) ->
    let ce = compile_expr ctx e in
    let placed_size = Layout.sizeof ctx.x_env ty in
    emit em
      (Do
         (fun rt ->
           step rt;
           Machine.delete_placed rt.m (Value.as_bits (ce rt)) ~placed_size))
  | Ast.Cout items ->
    let citems =
      List.map
        (fun item ->
          match item with
          | Ast.Str s -> `Lit s
          | e -> `Eval (compile_expr ctx e))
        items
    in
    emit em
      (Do
         (fun rt ->
           step rt;
           List.iter
             (fun ci ->
               match ci with
               | `Lit s -> Machine.print rt.m s
               | `Eval ce -> (
                 let v = ce rt in
                 match v.Value.ty with
                 | Ctype.Ptr Ctype.Char ->
                   Machine.print rt.m
                     (Vmem.read_cstring (Machine.mem rt.m) (Value.as_bits v))
                 | _ -> Machine.print rt.m (Value.to_string v)))
             citems))

and compile_block ctx em body = List.iter (compile_stmt ctx em) body

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)

(* One slot per distinct local name: parameters first, then declarations
   in syntactic order. Re-declarations share the slot, so the most recent
   allocation wins — the same answer [Machine.lookup_var] gives. *)
let slot_table fn =
  let slots = Hashtbl.create 16 in
  let add name =
    if not (Hashtbl.mem slots name) then Hashtbl.add slots name (Hashtbl.length slots)
  in
  List.iter (fun (p, _) -> add p) fn.Ast.fn_params;
  Ast.fold_stmts
    (fun () s ->
      match s with
      | Ast.Decl (n, _, _) | Ast.Decl_obj (n, _, _) -> add n
      | _ -> ())
    (fun () _ -> ())
    () fn.Ast.fn_body;
  slots

let compile prog =
  let env = Interp.build_env prog in
  let funcs = Array.of_list prog.Ast.p_funcs in
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i fn ->
      if not (Hashtbl.mem index fn.Ast.fn_name) then
        Hashtbl.add index fn.Ast.fn_name i)
    funcs;
  let tables = Array.map slot_table funcs in
  let cfuncs =
    Array.mapi
      (fun i fn ->
        let slots = tables.(i) in
        {
          c_name = fn.Ast.fn_name;
          c_params =
            List.map (fun (p, ty) -> (Hashtbl.find slots p, p, ty)) fn.Ast.fn_params;
          c_nslots = Hashtbl.length slots;
          c_code = [||];
        })
      funcs
  in
  let u = { u_prog = prog; u_env = env; u_funcs = cfuncs; u_index = index } in
  Array.iteri
    (fun i fn ->
      let ctx =
        {
          x_u = u;
          x_env = env;
          x_prog = prog;
          x_funcs = funcs;
          x_self = i;
          x_fname = fn.Ast.fn_name;
          x_slots = tables.(i);
        }
      in
      let em = { e_rev = []; e_n = 0 } in
      compile_block ctx em fn.Ast.fn_body;
      cfuncs.(i).c_code <- Array.of_list (List.rev em.e_rev))
    funcs;
  u

(* ------------------------------------------------------------------ *)
(* Unit cache                                                          *)

(* Physical-identity LRU: catalogue attacks and prepared scenarios hold on
   to one program value, so [==] is both cheap and exact (structural
   equality could conflate distinct-but-identical genomes, which would be
   fine semantically but is not needed). *)
let cache_cap = 64
let cache_lock = Mutex.create ()
let cache : (Ast.program * t) list ref = ref []

let cached prog =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) @@ fun () ->
  match List.find_opt (fun (p, _) -> p == prog) !cache with
  | Some (_, u) ->
    cache := (prog, u) :: List.filter (fun (p, _) -> p != prog) !cache;
    u
  | None ->
    let u = compile prog in
    let rest =
      if List.length !cache >= cache_cap then
        List.filteri (fun i _ -> i < cache_cap - 1) !cache
      else !cache
    in
    cache := (prog, u) :: rest;
    u

let make_rt ?(max_steps = 2_000_000) ?(max_depth = 256) ?on_stmt ?on_tick m u =
  {
    m;
    mem = Machine.mem m;
    u;
    max_steps;
    max_depth;
    on_stmt;
    on_tick;
    steps = 0;
    depth = 0;
    pnew_counter = 0;
    slots = [||];
    faddr = Array.make (Array.length u.u_funcs + 1) (-1);
    sizeof_memo = Hashtbl.create 16;
    fld_memo = Hashtbl.create 16;
    meth_memo = Hashtbl.create 16;
  }
