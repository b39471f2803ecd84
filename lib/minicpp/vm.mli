(** The execution engine: compiled units ({!Compile}) run over a
    {!Pna_machine.Machine} process image. Outcomes, step counts, events
    and taint are pinned by E19 against the recorded observations of the
    tree-walking evaluator the VM replaced; telemetry spans carry
    [cat:"vm"]. *)

val load : Ast.program -> Compile.t
(** Fetch (or compile) the unit for a program, under a [cat:"vm"] "load"
    span. Units are cached by physical program identity. *)

val default_max_steps : int
(** The step budget of a run given no [max_steps]: 2,000,000. *)

val run :
  ?max_steps:int ->
  ?max_depth:int ->
  ?on_stmt:(string -> Ast.stmt -> unit) ->
  ?on_tick:(int -> unit) ->
  Pna_machine.Machine.t ->
  Compile.t ->
  entry:string ->
  Outcome.t
(** Execute [entry] (usually ["main"]) from a compiled unit. Never
    raises: crashes, defense stops, hijacks, timeouts and OOM all surface
    as the outcome status. [max_steps] (default {!default_max_steps}) bounds
    evaluated expressions + statements; exceeding it is the DoS outcome.
    [max_depth] (default 256) bounds the call depth. [on_stmt] is invoked
    before every executed statement with the enclosing function's name —
    the hook behind {!Pna.Coverage}. [on_tick] is invoked with the step
    counter after every step — the chaos layer's spurious-fault hook;
    exceptions it raises surface like execution faults. *)

val execute :
  ?heap_size:int ->
  ?max_steps:int ->
  ?max_depth:int ->
  ?on_stmt:(string -> Ast.stmt -> unit) ->
  ?on_tick:(int -> unit) ->
  config:Pna_defense.Config.t ->
  ?input_ints:int list ->
  ?input_strings:string list ->
  ?entry:string ->
  Ast.program ->
  Outcome.t
(** {!Interp.load} + set input + compile + {!run} in one call. A load
    that exhausts a segment is classified as a crash, out-of-memory or
    defense outcome instead of escaping as an exception. *)
