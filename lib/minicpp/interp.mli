(** The MiniC++ semantic kernel: compiled-C++ semantics (no implicit
    safety checks) over a {!Pna_machine.Machine} process image.

    The exception vocabulary, scalar memory access, control-transfer
    classification, method resolution, the libc builtins and the image
    loader. The bytecode compiler ({!Compile}) and VM ({!Vm}) execute
    programs on top of it. *)

exception Halt of Outcome.status
(** Abnormal termination carrying the outcome status; callers of
    {!Vm.run} never see it. *)

exception Type_error of string

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format-and-raise {!Type_error}. *)

val load_scalar : Pna_machine.Machine.t -> int -> Pna_layout.Ctype.t -> Value.t
val store_scalar :
  Pna_machine.Machine.t -> int -> Pna_layout.Ctype.t -> Value.t -> unit

val classify :
  Pna_machine.Machine.t ->
  via:Outcome.hijack_via ->
  target:int ->
  symbol:string option ->
  tainted:bool ->
  Outcome.status
(** What happens when hijacked control reaches [target]: arc injection
    for a known symbol, code injection (or the NX block) for a writable
    segment, a crash otherwise. *)

val resolve_method :
  Pna_layout.Layout.env -> string -> string -> Pna_layout.Class_def.meth
(** Resolve a method against a class, walking base classes; raises
    {!Type_error} when no class in the hierarchy defines it. *)

val builtin :
  Pna_machine.Machine.t -> string -> Value.t list -> Value.t option option
(** [builtin m name argv] dispatches on [(name, arity)]: [None] when the
    pair names no builtin, [Some result] otherwise (with [result = None]
    for void builtins). *)

val is_builtin : string -> int -> bool
(** Does [(name, arity)] name a builtin? In lockstep with {!builtin}; the
    compiler uses it to pre-bind call sites. *)

val build_env : Ast.program -> Pna_layout.Layout.env
(** Layout environment for the program's classes. *)

val libc_symbols : string list
(** Attack-target symbols present in every image ("system", ...). *)

val load :
  ?heap_size:int -> config:Pna_defense.Config.t -> Ast.program -> Pna_machine.Machine.t
(** Build the process image: register functions and libc symbols, emit
    vtables, allocate and initialize globals. *)
