(** The execution engine's front door: run a compiled unit ({!Compile.t})
    over a process image and classify how it ended. Telemetry spans carry
    [cat:"vm"]. *)

module Machine = Pna_machine.Machine
module Event = Pna_machine.Event
module Heap = Pna_machine.Heap
module Fault = Pna_vmem.Fault

let load prog =
  Pna_telemetry.Trace.with_span ~cat:"vm" "load" @@ fun () ->
  Compile.cached prog

let default_max_steps = 2_000_000

let run ?(max_steps = default_max_steps) ?(max_depth = 256) ?on_stmt ?on_tick m
    (u : Compile.t) ~entry =
  let rt = Compile.make_rt ~max_steps ~max_depth ?on_stmt ?on_tick m u in
  Pna_telemetry.Trace.with_span ~cat:"vm"
    ~args:[ ("entry", Pna_telemetry.Trace.Str entry) ]
    "run"
  @@ fun () ->
  let status =
    try
      match Hashtbl.find_opt u.Compile.u_index entry with
      | None -> Outcome.Crashed (Fmt.str "no entry point %s" entry)
      | Some fi -> (
        match
          Compile.vinvoke rt ~caller:(Array.length u.Compile.u_funcs) fi []
        with
        | Some v -> Outcome.Exited (Value.as_int v)
        | None -> Outcome.Exited 0)
    with
    | Interp.Halt s -> s
    | Event.Security_stop e -> (
      match e with
      | Event.Canary_smashed _ -> Outcome.Stack_smashing_detected
      | Event.Out_of_memory _ -> Outcome.Out_of_memory
      | Event.Nx_blocked _ -> Outcome.Defense_blocked "nx-stack"
      | Event.Shadow_stack_blocked _ -> Outcome.Defense_blocked "shadow-stack"
      | Event.Bounds_blocked _ -> Outcome.Defense_blocked "bounds-check"
      | _ -> Outcome.Defense_blocked "defense")
    | Fault.Fault f -> Outcome.Crashed (Fault.to_string f)
    | Heap.Corrupted (a, msg) ->
      Outcome.Crashed (Fmt.str "heap corruption at 0x%08x: %s" a msg)
    | Interp.Type_error msg -> Outcome.Crashed (Fmt.str "type error: %s" msg)
  in
  Pna_telemetry.Trace.add_args
    [
      ("steps", Pna_telemetry.Trace.Int rt.Compile.steps);
      ("status", Pna_telemetry.Trace.Str (Fmt.str "%a" Outcome.pp_status status));
    ];
  {
    Outcome.status;
    events = Machine.events m;
    output = Machine.output m;
    steps = rt.Compile.steps;
  }

(* Load + input + run in one call. Loading a hostile source file can
   exhaust a segment (text/data/bss); classify that as an out-of-memory
   (or otherwise blocked) outcome instead of letting an exception
   escape. *)
let execute ?heap_size ?max_steps ?max_depth ?on_stmt ?on_tick ~config
    ?(input_ints = []) ?(input_strings = []) ?(entry = "main") prog =
  match Interp.load ?heap_size ~config prog with
  | m ->
    Machine.set_input ~ints:input_ints ~strings:input_strings m;
    let u = load prog in
    run ?max_steps ?max_depth ?on_stmt ?on_tick m u ~entry
  | exception (Failure msg | Invalid_argument msg) ->
    {
      Outcome.status = Outcome.Crashed (Fmt.str "image load failed: %s" msg);
      events = [];
      output = [];
      steps = 0;
    }
  | exception Event.Security_stop e ->
    let status =
      match e with
      | Event.Out_of_memory _ -> Outcome.Out_of_memory
      | Event.Canary_smashed _ -> Outcome.Stack_smashing_detected
      | _ -> Outcome.Defense_blocked "defense"
    in
    { Outcome.status; events = []; output = []; steps = 0 }
