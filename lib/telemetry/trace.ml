(** Structured tracing: nested timed spans and instant events, buffered
    per domain.

    Each domain that traces gets its own bounded {!Pna_ring.Ring} of
    the newest 16384 events and its own open-span stack, registered
    lazily through [Domain.DLS] — so {!Service.Pool} workers never
    contend on a shared buffer and the Chrome export renders one track
    per domain. When the global {!Switch} is off,
    {!with_span} costs one atomic load and a branch around the thunk;
    instants and annotations cost nothing.

    Timestamps are microseconds from an arbitrary process-local epoch
    (the first use of the module), which is what the Chrome Trace Event
    format expects. *)

type arg = Str of string | Int of int | Bool of bool | Float of float

(* A causal trace identity carried across layers (and, via {!Frame},
   across processes): which trace a span belongs to and which span is
   its parent. Span ids are process-unique; trace ids are drawn from
   the same generator so two processes sampling independently will not
   collide in practice (the generator is seeded from the monotonic
   clock at module init, then strides). *)
type ctx = { trace_id : int; parent_span : int }

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : int; (* domain id, rendered as tid *)
  ev_ts : float; (* microseconds since [epoch] *)
  ev_dur : float; (* microseconds; 0 for instants *)
  ev_instant : bool;
  ev_args : (string * arg) list;
}

(* A span still on the stack; args can grow via [add_args] until it
   closes. *)
type open_span = {
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  sp_id : int; (* 0 when no ctx was installed at open time *)
  sp_parent : int;
  mutable sp_args : (string * arg) list;
}

module Ring = Pna_ring.Ring

type buffer = {
  b_track : int;
  b_mutex : Mutex.t; (* owner domain writes; exporters read *)
  b_ring : event Ring.t;
  mutable b_stack : open_span list;
  mutable b_ctx : ctx option; (* trace identity for spans opened here *)
}

let events_per_domain = 16_384

(* every domain's buffer, for exporters running on another domain *)
let all_buffers : buffer list Atomic.t = Atomic.make []

let register buf =
  let rec go () =
    let cur = Atomic.get all_buffers in
    if not (Atomic.compare_and_set all_buffers cur (buf :: cur)) then go ()
  in
  go ()

let key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf =
        {
          b_track = (Domain.self () :> int);
          b_mutex = Mutex.create ();
          b_ring = Ring.create events_per_domain;
          b_stack = [];
          b_ctx = None;
        }
      in
      register buf;
      buf)

let buffer () = Domain.DLS.get key

(* Monotonic so span durations can't be skewed by wall-clock steps. *)
let epoch = Clock.now_ns ()

let now_us () = Clock.elapsed_us ~a:epoch ~b:(Clock.now_ns ())

(* Convert a raw [Clock.now_ns] stamp taken elsewhere into this
   module's export timebase, for retroactive [emit]s. *)
let us_of_ns ns = Clock.elapsed_us ~a:epoch ~b:ns

(* -- trace identity ------------------------------------------------- *)

(* Process-unique span/trace ids. Seeded from the monotonic clock so
   two cooperating processes (client + server merged into one trace)
   allocate from disjoint ranges with overwhelming probability; ids
   only need uniqueness, not secrecy. 0 is reserved for "no parent". *)
let id_counter =
  let seed = Int64.to_int (Clock.now_ns ()) land 0x3f_ffff_ffff in
  Atomic.make ((seed lsl 20) lor 1)

let next_span_id () = Atomic.fetch_and_add id_counter 1

let new_ctx () = { trace_id = next_span_id (); parent_span = 0 }

let current () = (buffer ()).b_ctx

(* The (trace_id, parent_span) pair an outgoing request should carry:
   the innermost open span if there is one, else the installed ctx's
   parent. None when tracing is off or no ctx is installed — untraced
   requests stay byte-identical to the v1 wire format. *)
let wire_ctx () =
  if not (Switch.enabled ()) then None
  else
    let buf = buffer () in
    match buf.b_ctx with
    | None -> None
    | Some ctx ->
      let parent =
        match buf.b_stack with
        | top :: _ when top.sp_id <> 0 -> top.sp_id
        | _ -> ctx.parent_span
      in
      Some (ctx.trace_id, parent)

(* Install [ctx] for the dynamic extent of [f] on this domain: spans
   opened inside carry the trace identity. [None] restores the default
   (identity-less) behaviour. *)
let with_ctx ctx f =
  let buf = buffer () in
  let saved = buf.b_ctx in
  buf.b_ctx <- ctx;
  Fun.protect ~finally:(fun () -> buf.b_ctx <- saved) f

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let push buf ev = locked buf.b_mutex (fun () -> Ring.push buf.b_ring ev)

(* -- recording ------------------------------------------------------ *)

let instant ?(cat = "event") ?(args = []) name =
  if Switch.enabled () then
    let buf = buffer () in
    push buf
      {
        ev_name = name;
        ev_cat = cat;
        ev_track = buf.b_track;
        ev_ts = now_us ();
        ev_dur = 0.;
        ev_instant = true;
        ev_args = args;
      }

(* Annotate the innermost open span — e.g. a run span learns its
   verdict only after the interpreter returns. No-op when disabled or
   outside any span. *)
let add_args args =
  if Switch.enabled () then
    let buf = buffer () in
    match buf.b_stack with
    | [] -> ()
    | sp :: _ -> sp.sp_args <- sp.sp_args @ args

(* Trace-identity args appended at close time, so merged traces can be
   re-linked into span trees after export. Absent when no ctx is
   installed — the common single-process path is byte-identical to the
   pre-wire format. *)
let identity_args buf sp =
  match buf.b_ctx with
  | None -> []
  | Some ctx ->
    [
      ("trace_id", Int ctx.trace_id);
      ("span_id", Int sp.sp_id);
      ("parent_id", Int sp.sp_parent);
    ]

let with_span ?(cat = "span") ?(args = []) name f =
  if not (Switch.enabled ()) then f ()
  else begin
    let buf = buffer () in
    let sp_id, sp_parent =
      match buf.b_ctx with
      | None -> (0, 0)
      | Some ctx ->
        let parent =
          match buf.b_stack with
          | top :: _ when top.sp_id <> 0 -> top.sp_id
          | _ -> ctx.parent_span
        in
        (next_span_id (), parent)
    in
    let sp =
      { sp_name = name; sp_cat = cat; sp_start = now_us (); sp_id;
        sp_parent; sp_args = args }
    in
    buf.b_stack <- sp :: buf.b_stack;
    let close () =
      (match buf.b_stack with
      | top :: rest when top == sp -> buf.b_stack <- rest
      | stack ->
        (* exception tore through nested spans; drop through to [sp] *)
        let rec unwind = function
          | top :: rest when top == sp -> rest
          | _ :: rest -> unwind rest
          | [] -> stack
        in
        buf.b_stack <- unwind stack);
      push buf
        {
          ev_name = sp.sp_name;
          ev_cat = sp.sp_cat;
          ev_track = buf.b_track;
          ev_ts = sp.sp_start;
          ev_dur = now_us () -. sp.sp_start;
          ev_instant = false;
          ev_args = sp.sp_args @ identity_args buf sp;
        }
    in
    Fun.protect ~finally:close f
  end

(* Retroactive span: record an event whose start/duration were measured
   elsewhere (e.g. a queue wait clocked by the pool, or a request span
   closed when the reply is flushed rather than inside a [with_span]
   extent). [trace] is (trace_id, span_id, parent_id). *)
let emit ?(cat = "span") ?(args = []) ?trace ~name ~ts_us ~dur_us () =
  if Switch.enabled () then
    let buf = buffer () in
    let identity =
      match trace with
      | None -> []
      | Some (tid, id, parent) ->
        [
          ("trace_id", Int tid);
          ("span_id", Int id);
          ("parent_id", Int parent);
        ]
    in
    push buf
      {
        ev_name = name;
        ev_cat = cat;
        ev_track = buf.b_track;
        ev_ts = ts_us;
        ev_dur = dur_us;
        ev_instant = false;
        ev_args = args @ identity;
      }

(* -- reading back --------------------------------------------------- *)

let collect buf = locked buf.b_mutex (fun () -> Ring.to_list buf.b_ring)

let events () =
  let evs =
    List.concat_map collect (Atomic.get all_buffers)
  in
  List.sort (fun a b -> compare a.ev_ts b.ev_ts) evs

let dropped () =
  List.fold_left
    (fun acc buf -> acc + locked buf.b_mutex (fun () -> Ring.dropped buf.b_ring))
    0 (Atomic.get all_buffers)

let reset () =
  List.iter
    (fun buf -> locked buf.b_mutex (fun () -> Ring.clear buf.b_ring))
    (Atomic.get all_buffers)

(* -- exporters ------------------------------------------------------ *)

let arg_json = function
  | Str s -> Jsonx.Str s
  | Int i -> Jsonx.Int i
  | Bool b -> Jsonx.Bool b
  | Float f -> Jsonx.Float f

let args_json args = Jsonx.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)

let event_json ev =
  let base =
    [
      ("name", Jsonx.Str ev.ev_name);
      ("cat", Jsonx.Str ev.ev_cat);
      ("ph", Jsonx.Str (if ev.ev_instant then "i" else "X"));
      ("ts", Jsonx.Float ev.ev_ts);
      ("pid", Jsonx.Int 1);
      ("tid", Jsonx.Int ev.ev_track);
    ]
  in
  let dur = if ev.ev_instant then [] else [ ("dur", Jsonx.Float ev.ev_dur) ] in
  let scope = if ev.ev_instant then [ ("s", Jsonx.Str "t") ] else [] in
  let args =
    match ev.ev_args with [] -> [] | args -> [ ("args", args_json args) ]
  in
  Jsonx.Obj (base @ dur @ scope @ args)

(* Chrome Trace Event JSON (object form) — loadable in Perfetto or
   chrome://tracing. One metadata record names each domain track. *)
let chrome_json () =
  let evs = events () in
  let tracks =
    List.sort_uniq compare (List.map (fun ev -> ev.ev_track) evs)
  in
  let metadata =
    List.map
      (fun track ->
        Jsonx.Obj
          [
            ("name", Jsonx.Str "thread_name");
            ("ph", Jsonx.Str "M");
            ("pid", Jsonx.Int 1);
            ("tid", Jsonx.Int track);
            ( "args",
              Jsonx.Obj [ ("name", Jsonx.Str (Fmt.str "domain-%d" track)) ] );
          ])
      tracks
  in
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.List (metadata @ List.map event_json evs));
      ("displayTimeUnit", Jsonx.Str "ms");
    ]

let export_chrome ppf = Fmt.pf ppf "%s@." (Jsonx.to_string (chrome_json ()))

(* Compact JSONL: one event object per line, no envelope. *)
let export_jsonl ppf =
  List.iter
    (fun ev -> Fmt.pf ppf "%s@." (Jsonx.to_string (event_json ev)))
    (events ())

(* Merge several already-exported Chrome traces (e.g. client-side and
   server-side halves of a wire run) into one: input [i] is re-homed to
   pid [i+1] so per-process tracks stay distinct, and the traceEvents
   arrays concatenate. Span linkage survives untouched because it lives
   in trace_id/span_id/parent_id args, not in pids. *)
let merge_chrome traces =
  let repid pid = function
    | Jsonx.Obj fields ->
      Jsonx.Obj
        (List.map
           (fun (k, v) -> if k = "pid" then (k, Jsonx.Int pid) else (k, v))
           fields)
    | j -> j
  in
  let evs =
    List.concat
      (List.mapi
         (fun i trace ->
           let pid = i + 1 in
           match Jsonx.member "traceEvents" trace with
           | Some (Jsonx.List evs) -> List.map (repid pid) evs
           | _ -> [])
         traces)
  in
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.List evs);
      ("displayTimeUnit", Jsonx.Str "ms");
    ]
