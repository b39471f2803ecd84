(** The attack flight recorder: a bounded, always-on black box.

    Two stores cooperate:

    - a {e process-global ring} of the newest 1024 happenings any layer
      may note (wire frames in and out, campaign milestones) — cheap
      enough to leave armed in production, bounded so a soak cannot
      grow it;
    - a {e per-run session} that taps the sanitizer's violation and
      shadow-transition hooks and the interpreter's statement ticks
      into its own tail of the newest 2048 entries. The first violation
      is latched in its own slot, outside any ring, so no volume of
      later activity can overwrite the one fact a post-mortem needs
      most: which statement wrote which bytes first.

    Both bounds are {!Pna_ring.Ring}s: what falls off is counted
    ({!dropped}, the bundle's [timeline_dropped]), never silently lost.

    {!dump} freezes both into a self-contained forensic bundle — a
    JSONL timeline, the Chrome trace, a shadow-map excerpt around the
    first corrupting access, the Vmem write-trace tail with taint
    provenance, and a verdict summary — and {!report} reconstructs the
    attack narrative from a bundle directory alone. *)

module Jsonx = Pna_telemetry.Jsonx
module Trace = Pna_telemetry.Trace
module San = Pna_sanitizer.Sanitizer
module Machine = Pna_machine.Machine
module Event = Pna_machine.Event
module Vmem = Pna_vmem.Vmem
module Fault = Pna_vmem.Fault
module Ring = Pna_ring.Ring

type entry = {
  e_seq : int;
  e_ts_us : float;  (** microseconds on the {!Trace} epoch *)
  e_step : int;  (** interpreter step at note time; -1 outside a run *)
  e_kind : string;
  e_data : (string * Jsonx.t) list;
}

(* -- the global ring ------------------------------------------------- *)

let ring : entry Ring.t = Ring.create 1024
let ring_mutex = Mutex.create ()

let locked f =
  Mutex.lock ring_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_mutex) f

(* An entry stamped with its ring's sequence number: every push since the
   last reset, retained or dropped. *)
let push r ~step ~kind data =
  Ring.push r
    {
      e_seq = Ring.length r + Ring.dropped r;
      e_ts_us = Trace.now_us ();
      e_step = step;
      e_kind = kind;
      e_data = data;
    }

let note ?(step = -1) ~kind data = locked (fun () -> push ring ~step ~kind data)
let entries () = locked (fun () -> Ring.to_list ring)
let dropped () = locked (fun () -> Ring.dropped ring)
let reset () = locked (fun () -> Ring.clear ring)

(* -- per-run sessions ------------------------------------------------ *)

(* What the latch keeps about the first corrupting access: the full
   violation record plus the interpreter step it happened on. *)
type first = { fv_violation : San.violation; fv_step : int }

(* [fs_tail] is the session-local event tail — transitions and
   violations with step numbers, bounded like the global ring but
   private to one run so concurrent workers never interleave. *)
type session = {
  fs_scenario : string;
  fs_config : string;
  mutable fs_step : int;
  mutable fs_first : first option;
  mutable fs_violations : int;
  mutable fs_transitions : int;
  fs_tail : entry Ring.t;
}

let start ~scenario ~config =
  {
    fs_scenario = scenario;
    fs_config = config;
    fs_step = 0;
    fs_first = None;
    fs_violations = 0;
    fs_transitions = 0;
    fs_tail = Ring.create 2048;
  }

let tick fs = fs.fs_step <- fs.fs_step + 1
let step fs = fs.fs_step
let first_violation fs = fs.fs_first

let session_note fs ~kind data = push fs.fs_tail ~step:fs.fs_step ~kind data

let access_name = function
  | Fault.Read -> "read"
  | Fault.Write -> "write"
  | Fault.Execute -> "exec"

let violation_fields (v : San.violation) =
  [
    ("kind", Jsonx.Str (San.kind_name v.San.v_kind));
    ("addr", Jsonx.Int v.San.v_addr);
    ("len", Jsonx.Int v.San.v_len);
    ("access", Jsonx.Str (access_name v.San.v_access));
    ("taint", Jsonx.Bool v.San.v_taint);
    ("state", Jsonx.Str (San.state_name v.San.v_state));
    ("site", Jsonx.Str v.San.v_site);
    ("seq", Jsonx.Int v.San.v_seq);
  ]

(* Wire the session into a sanitizer: every new violation record and
   every shadow transition lands in the session tail; the first
   violation also latches. Replaces any previous hooks on [san]. *)
let attach fs (san : San.t) =
  San.set_on_violation san
    (Some
       (fun v ->
         fs.fs_violations <- fs.fs_violations + 1;
         if fs.fs_first = None then
           fs.fs_first <- Some { fv_violation = v; fv_step = fs.fs_step };
         session_note fs ~kind:"violation" (violation_fields v)));
  San.set_on_transition san
    (Some
       (fun ~op ~addr ~len st ->
         fs.fs_transitions <- fs.fs_transitions + 1;
         session_note fs ~kind:"transition"
           [
             ("op", Jsonx.Str op);
             ("addr", Jsonx.Int addr);
             ("len", Jsonx.Int len);
             ("state", Jsonx.Str (San.state_name st));
           ]))

let detach (san : San.t) =
  San.set_on_violation san None;
  San.set_on_transition san None

let session_entries fs = Ring.to_list fs.fs_tail

(* -- forensic bundle ------------------------------------------------- *)

(* Which named region a simulated address falls in — the "what did the
   write corrupt" half of the narrative, alongside the shadow state. *)
let region_of_addr addr =
  let within base size = addr >= base && addr < base + size in
  if within Machine.text_base 0x8000 then "text"
  else if within Machine.rodata_base 0x10000 then "rodata (vtables)"
  else if within Machine.data_base 0x10000 then "data"
  else if within Machine.bss_base 0x20000 then "bss"
  else if addr >= Machine.heap_base && addr < Machine.stack_base then "heap"
  else if addr >= Machine.stack_base && addr <= Machine.stack_top then "stack"
  else "unmapped"

let entry_json e =
  Jsonx.Obj
    ([
       ("seq", Jsonx.Int e.e_seq);
       ("ts_us", Jsonx.Float e.e_ts_us);
       ("step", Jsonx.Int e.e_step);
       ("kind", Jsonx.Str e.e_kind);
     ]
    @ e.e_data)

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc content)

let sanitize_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

(* The write-trace records that touched the corrupted range — the taint
   provenance of the first corrupting access. *)
let provenance writes (v : San.violation) =
  List.filter
    (fun (w : Vmem.write_record) ->
      w.Vmem.w_addr < v.San.v_addr + v.San.v_len
      && w.Vmem.w_addr + w.Vmem.w_len > v.San.v_addr)
    writes

let shadow_excerpt san (v : San.violation) =
  let b = Buffer.create 512 in
  let lo = v.San.v_addr - 32 and hi = v.San.v_addr + v.San.v_len + 32 in
  let addr = ref lo in
  while !addr < hi do
    let st = San.state_at san !addr in
    (* coalesce runs of the same state into one line *)
    let run_start = !addr in
    while !addr < hi && San.state_at san !addr = st do
      incr addr
    done;
    Buffer.add_string b
      (Fmt.str "0x%08x..0x%08x  %s%s\n" run_start (!addr - 1)
         (San.state_name st)
         (if v.San.v_addr >= run_start && v.San.v_addr < !addr then
            "   <-- first corrupting access"
          else ""))
  done;
  Buffer.contents b

(* Dump a self-contained bundle under [dir]/<scenario>_<config>/ and
   return the bundle directory. [machine] contributes the event log and
   the Vmem write-trace tail; [san] the shadow excerpt. *)
let dump ~dir ?machine ?san ~status fs =
  let bundle =
    Filename.concat dir
      (sanitize_name (fs.fs_scenario ^ "_" ^ fs.fs_config))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  (try Unix.mkdir bundle 0o755 with Unix.Unix_error _ -> ());
  let writes =
    match machine with Some m -> Vmem.trace (Machine.mem m) | None -> []
  in
  (* timeline: the session tail then the global ring, one object per
     line, already in causal order within each stream *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Jsonx.to_string (entry_json e));
      Buffer.add_char buf '\n')
    (session_entries fs @ entries ());
  write_file (Filename.concat bundle "timeline.jsonl") (Buffer.contents buf);
  (* machine events *)
  (match machine with
  | Some m ->
    let buf = Buffer.create 1024 in
    List.iter
      (fun ev ->
        Buffer.add_string buf (Jsonx.to_string (Event.to_json ev));
        Buffer.add_char buf '\n')
      (Machine.events m);
    write_file (Filename.concat bundle "events.jsonl") (Buffer.contents buf)
  | None -> ());
  (* vmem write-trace tail *)
  (match writes with
  | [] -> ()
  | ws ->
    let buf = Buffer.create 4096 in
    List.iter
      (fun (w : Vmem.write_record) ->
        Buffer.add_string buf
          (Jsonx.to_string
             (Jsonx.Obj
                [
                  ("addr", Jsonx.Int w.Vmem.w_addr);
                  ("len", Jsonx.Int w.Vmem.w_len);
                  ("tag", Jsonx.Str w.Vmem.w_tag);
                ]));
        Buffer.add_char buf '\n')
      ws;
    write_file (Filename.concat bundle "writes.jsonl") (Buffer.contents buf));
  (* chrome trace of whatever the ring holds right now *)
  write_file
    (Filename.concat bundle "trace.json")
    (Jsonx.to_string (Trace.chrome_json ()));
  (* shadow excerpt around the first corrupting access *)
  (match (san, fs.fs_first) with
  | Some san, Some f ->
    write_file
      (Filename.concat bundle "shadow.txt")
      (shadow_excerpt san f.fv_violation)
  | _ -> ());
  (* the verdict summary: everything a regression diff needs on one
     parseable page *)
  let first_json =
    match fs.fs_first with
    | None -> Jsonx.Null
    | Some f ->
      Jsonx.Obj
        (violation_fields f.fv_violation
        @ [
            ("step", Jsonx.Int f.fv_step);
            ( "region",
              Jsonx.Str (region_of_addr f.fv_violation.San.v_addr) );
            ( "steps_to_verdict",
              Jsonx.Int (max 0 (fs.fs_step - f.fv_step)) );
            ( "provenance",
              Jsonx.List
                (List.map
                   (fun (w : Vmem.write_record) ->
                     Jsonx.Obj
                       [
                         ("addr", Jsonx.Int w.Vmem.w_addr);
                         ("len", Jsonx.Int w.Vmem.w_len);
                         ("tag", Jsonx.Str w.Vmem.w_tag);
                       ])
                   (provenance writes f.fv_violation)) );
          ])
  in
  write_file
    (Filename.concat bundle "verdict.json")
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("scenario", Jsonx.Str fs.fs_scenario);
            ("config", Jsonx.Str fs.fs_config);
            ("status", Jsonx.Str status);
            ("steps", Jsonx.Int fs.fs_step);
            ("violations", Jsonx.Int fs.fs_violations);
            ("transitions", Jsonx.Int fs.fs_transitions);
            ("timeline_dropped", Jsonx.Int (Ring.dropped fs.fs_tail));
            ("first_violation", first_json);
          ]));
  bundle

(* -- reading a bundle back ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let load_verdict bundle =
  match Jsonx.of_string (read_file (Filename.concat bundle "verdict.json")) with
  | Ok j -> Ok j
  | Error e -> Error (Fmt.str "verdict.json: %s" e)
  | exception Sys_error e -> Error e

(* Reconstruct the attack narrative from the bundle directory alone —
   the [pna forensics] output. *)
let report ppf bundle =
  match load_verdict bundle with
  | Error e -> Fmt.pf ppf "cannot read bundle %s: %s@." bundle e
  | Ok v ->
    let str k = Option.bind (Jsonx.member k v) Jsonx.to_str in
    let int_ k = Option.bind (Jsonx.member k v) Jsonx.to_int in
    let get d = Option.value ~default:d in
    Fmt.pf ppf "@[<v>== forensic timeline: %s under %s ==@,"
      (get "?" (str "scenario"))
      (get "?" (str "config"));
    Fmt.pf ppf "status: %s after %d steps; %d violation(s), %d shadow transition(s)@,"
      (get "?" (str "status"))
      (get 0 (int_ "steps"))
      (get 0 (int_ "violations"))
      (get 0 (int_ "transitions"));
    (match Jsonx.member "first_violation" v with
    | Some (Jsonx.Obj _ as f) ->
      let fstr k = Option.bind (Jsonx.member k f) Jsonx.to_str in
      let fint k = Option.bind (Jsonx.member k f) Jsonx.to_int in
      Fmt.pf ppf
        "first corrupting access: step %d — %s %s of 0x%08x+%d (%s, %s)@,"
        (get 0 (fint "step"))
        (get "?" (fstr "kind"))
        (get "?" (fstr "access"))
        (get 0 (fint "addr"))
        (get 1 (fint "len"))
        (get "?" (fstr "state"))
        (get "?" (fstr "region"));
      Fmt.pf ppf "  at %s@," (get "<unknown site>" (fstr "site"));
      Fmt.pf ppf "  verdict fired %d step(s) later@,"
        (get 0 (fint "steps_to_verdict"));
      (match Jsonx.member "provenance" f with
      | Some (Jsonx.List (_ :: _ as ws)) ->
        Fmt.pf ppf "  corrupting bytes written by:@,";
        List.iter
          (fun w ->
            let wint k = Option.bind (Jsonx.member k w) Jsonx.to_int in
            let wstr k = Option.bind (Jsonx.member k w) Jsonx.to_str in
            Fmt.pf ppf "    0x%08x+%d  %s@," (get 0 (wint "addr"))
              (get 0 (wint "len"))
              (get "?" (wstr "tag")))
          ws
      | _ -> ())
    | _ -> Fmt.pf ppf "no violation recorded@,");
    (* replay the timeline tail: the last events before the verdict *)
    (match
       String.split_on_char '\n'
         (read_file (Filename.concat bundle "timeline.jsonl"))
     with
    | lines ->
      let parsed =
        List.filter_map
          (fun l ->
            if String.trim l = "" then None
            else match Jsonx.of_string l with Ok j -> Some j | Error _ -> None)
          lines
      in
      let n = List.length parsed in
      let tail =
        if n > 12 then (
          Fmt.pf ppf "timeline: %d entries; last 12:@," n;
          List.filteri (fun i _ -> i >= n - 12) parsed)
        else (
          Fmt.pf ppf "timeline: %d entries:@," n;
          parsed)
      in
      List.iter
        (fun e ->
          let estr k = Option.bind (Jsonx.member k e) Jsonx.to_str in
          let eint k = Option.bind (Jsonx.member k e) Jsonx.to_int in
          Fmt.pf ppf "  [step %5d] %-12s %s@,"
            (get (-1) (eint "step"))
            (get "?" (estr "kind"))
            (String.concat " "
               (List.filter_map
                  (fun k ->
                    match Jsonx.member k e with
                    | Some (Jsonx.Str s) -> Some (k ^ "=" ^ s)
                    | Some (Jsonx.Int i) when k = "addr" ->
                      Some (Fmt.str "addr=0x%08x" i)
                    | Some (Jsonx.Int i) -> Some (Fmt.str "%s=%d" k i)
                    | _ -> None)
                  [ "op"; "kind"; "addr"; "len"; "state"; "site"; "dir"; "summary" ])))
        tail
    | exception Sys_error _ -> ());
    Fmt.pf ppf "@]"
