(* Tests for the telemetry layer: the JSON codec, the metrics registry,
   the span/trace ring, and the exporters. The Chrome-export test is the
   acceptance check for `pna trace`: it drives a real scenario and parses
   the emitted JSON back with our own parser. *)

module Telemetry = Pna_telemetry.Telemetry
module Trace = Pna_telemetry.Trace
module Metrics = Pna_telemetry.Metrics
module J = Pna_telemetry.Jsonx
module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog

(* Every test must leave the process-wide switch off and the ring empty:
   the rest of the suite runs with telemetry disabled. *)
let isolated f () =
  Telemetry.disable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Trace.reset ())
    f

let get = function Some v -> v | None -> Alcotest.fail "unexpected None"

(* ---------------- jsonx ---------------- *)

let test_jsonx_round_trip () =
  let v =
    J.Obj
      [
        ("s", J.Str "he said \"hi\"\n\t\\");
        ("n", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("nil", J.Null);
        ("l", J.List [ J.Int 1; J.Str "x"; J.Obj [] ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_jsonx_control_chars () =
  let s = J.to_string (J.Str "a\x01b") in
  Alcotest.(check string) "escaped" "\"a\\u0001b\"" s;
  match J.of_string s with
  | Ok (J.Str s') -> Alcotest.(check string) "parsed back" "a\x01b" s'
  | _ -> Alcotest.fail "parse failed"

let test_jsonx_rejects_garbage () =
  List.iter
    (fun src ->
      match J.of_string src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"\\q\""; "nul"; "[1] trailing" ]

let test_jsonx_numbers () =
  (match J.of_string "[0, -7, 3.25, 1e3]" with
  | Ok (J.List [ J.Int 0; J.Int (-7); a; b ]) ->
    Alcotest.(check (float 1e-9)) "3.25" 3.25 (get (J.to_float a));
    Alcotest.(check (float 1e-9)) "1e3" 1000.0 (get (J.to_float b))
  | _ -> Alcotest.fail "numbers");
  (* non-finite floats have no JSON literal; we emit null *)
  Alcotest.(check string) "nan -> null" "null" (J.to_string (J.Float Float.nan))

(* ---------------- metrics ---------------- *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "requests_total" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "count" 5 (Metrics.count c);
  (* interning: same name+labels is the same instrument *)
  Metrics.incr (Metrics.counter reg "requests_total");
  Alcotest.(check int) "interned" 6 (Metrics.count c);
  (* distinct labels are distinct instruments *)
  let c2 = Metrics.counter reg "requests_total" ~labels:[ ("kind", "x") ] in
  Metrics.incr c2;
  Alcotest.(check int) "labelled separate" 1 (Metrics.count c2);
  Alcotest.(check int) "base untouched" 6 (Metrics.count c)

let test_instrument_type_clash () =
  let reg = Metrics.create () in
  let _ = Metrics.counter reg "m" in
  Alcotest.(check bool) "clash rejected" true
    (match Metrics.gauge reg "m" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge_and_histogram () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.5 (Metrics.value g);
  let h = Metrics.histogram reg "latency_us" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 100.0; 100000.0 ];
  Alcotest.(check int) "hist count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "hist sum" 100104.0 (Metrics.hist_sum h)

let test_snapshot_cumulative_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 1024.0 ];
  match Metrics.snapshot reg with
  | [ Metrics.Histogram_info { hist; _ } ] ->
    Alcotest.(check int) "count" 3 hist.Metrics.hi_count;
    (* buckets are cumulative and end at +Inf = count *)
    let bounds, counts = List.split hist.Metrics.hi_buckets in
    Alcotest.(check bool) "monotone" true
      (List.sort compare counts = counts);
    Alcotest.(check bool) "ends at +Inf" true
      (List.exists (fun b -> b = infinity) bounds);
    Alcotest.(check int) "last = count" 3
      (List.nth counts (List.length counts - 1))
  | _ -> Alcotest.fail "expected one histogram"

let test_prometheus_format () =
  let reg = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter reg "jobs_total" ~labels:[ ("q", "a") ]);
  Metrics.observe (Metrics.histogram reg "wait_us") 5.0;
  let dump = Fmt.str "%a" Metrics.pp_prometheus reg in
  let contains needle =
    let nl = String.length needle and hl = String.length dump in
    let rec go i = i + nl <= hl && (String.sub dump i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Fmt.str "contains %S" needle) true
        (contains needle))
    [
      "# TYPE jobs_total counter";
      "jobs_total{q=\"a\"} 7";
      "# TYPE wait_us histogram";
      "wait_us_bucket{le=\"+Inf\"} 1";
      "wait_us_sum 5";
      "wait_us_count 1";
    ]

let test_metrics_reset () =
  let reg = Metrics.create () in
  Metrics.incr (Metrics.counter reg "c");
  Metrics.reset reg;
  Alcotest.(check int) "empty after reset" 0
    (List.length (Metrics.snapshot reg))

(* ---------------- trace ring ---------------- *)

let test_disabled_is_noop =
  isolated (fun () ->
      let ran = ref false in
      let v = Trace.with_span "s" (fun () -> ran := true; 17) in
      Trace.instant "i";
      Alcotest.(check bool) "body ran" true !ran;
      Alcotest.(check int) "value through" 17 v;
      Alcotest.(check int) "no events" 0 (List.length (Trace.events ())))

let test_span_nesting =
  isolated (fun () ->
      Telemetry.enable ();
      Trace.with_span "outer" (fun () ->
          Trace.instant ~cat:"machine" "tick";
          Trace.with_span "inner" (fun () -> ());
          Trace.add_args [ ("k", Trace.Str "v") ]);
      let evs = Trace.events () in
      Alcotest.(check int) "three events" 3 (List.length evs);
      let outer = List.find (fun e -> e.Trace.ev_name = "outer") evs in
      let inner = List.find (fun e -> e.Trace.ev_name = "inner") evs in
      let tick = List.find (fun e -> e.Trace.ev_name = "tick") evs in
      Alcotest.(check bool) "instant flagged" true tick.Trace.ev_instant;
      Alcotest.(check bool) "outer spans inner" true
        (outer.Trace.ev_ts <= inner.Trace.ev_ts
        && inner.Trace.ev_ts +. inner.Trace.ev_dur
           <= outer.Trace.ev_ts +. outer.Trace.ev_dur +. 1.0);
      Alcotest.(check bool) "add_args landed on outer" true
        (List.mem_assoc "k" outer.Trace.ev_args))

let test_span_exception_safe =
  isolated (fun () ->
      Telemetry.enable ();
      (try Trace.with_span "boom" (fun () -> failwith "x") with
      | Failure _ -> ());
      match Trace.events () with
      | [ e ] ->
        Alcotest.(check string) "span closed" "boom" e.Trace.ev_name;
        Alcotest.(check bool) "has duration" true (e.Trace.ev_dur >= 0.0)
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_ring_overflow_counts_drops =
  isolated (fun () ->
      Telemetry.enable ();
      (* past the per-domain ring's fixed bound, whatever it is *)
      let n = 20_000 in
      for i = 1 to n do
        Trace.instant (Fmt.str "i%d" i)
      done;
      let evs = Trace.events () in
      let dropped = Trace.dropped () in
      Alcotest.(check bool) "drops counted" true (dropped > 0);
      Alcotest.(check int) "every instant retained or dropped" n
        (List.length evs + dropped);
      Alcotest.(check string) "oldest retained follows the drops"
        (Fmt.str "i%d" (dropped + 1))
        (List.hd evs).Trace.ev_name;
      Trace.reset ();
      Alcotest.(check int) "reset clears" 0 (List.length (Trace.events ()));
      Alcotest.(check int) "reset clears drops" 0 (Trace.dropped ()))

(* ---------------- trace identity + wire context ---------------- *)

let int_arg e k =
  match List.assoc_opt k e.Trace.ev_args with
  | Some (Trace.Int v) -> v
  | _ -> Alcotest.failf "event %s missing int arg %s" e.Trace.ev_name k

let test_ctx_links_spans =
  isolated (fun () ->
      Telemetry.enable ();
      let ctx = Trace.new_ctx () in
      Trace.with_ctx (Some ctx) (fun () ->
          Trace.with_span "outer" (fun () ->
              Trace.with_span "inner" (fun () -> ())));
      (* identity-less spans stay identity-less: the single-process path
         exports exactly what it exported before tracing grew a wire *)
      Trace.with_span "plain" (fun () -> ());
      let evs = Trace.events () in
      let find n = List.find (fun e -> e.Trace.ev_name = n) evs in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check int) "outer in ctx trace" ctx.Trace.trace_id
        (int_arg outer "trace_id");
      Alcotest.(check int) "inner in same trace" ctx.Trace.trace_id
        (int_arg inner "trace_id");
      Alcotest.(check int) "outer is a root" 0 (int_arg outer "parent_id");
      Alcotest.(check int) "inner's parent is outer" (int_arg outer "span_id")
        (int_arg inner "parent_id");
      Alcotest.(check bool) "span ids nonzero and distinct" true
        (int_arg outer "span_id" <> 0
        && int_arg inner "span_id" <> 0
        && int_arg outer "span_id" <> int_arg inner "span_id");
      Alcotest.(check bool) "no identity outside ctx" true
        (not (List.mem_assoc "trace_id" (find "plain").Trace.ev_args)))

let test_wire_ctx =
  isolated (fun () ->
      Alcotest.(check bool) "switch off -> None" true (Trace.wire_ctx () = None);
      Telemetry.enable ();
      Alcotest.(check bool) "no ctx -> None" true (Trace.wire_ctx () = None);
      let ctx = Trace.new_ctx () in
      Trace.with_ctx (Some ctx) (fun () ->
          (match Trace.wire_ctx () with
          | Some (tid, 0) ->
            Alcotest.(check int) "trace id carried" ctx.Trace.trace_id tid
          | _ -> Alcotest.fail "expected the ctx with no parent span");
          Trace.with_span "rpc" (fun () ->
              match Trace.wire_ctx () with
              | Some (tid, parent) ->
                Alcotest.(check int) "trace id stable" ctx.Trace.trace_id tid;
                Alcotest.(check bool) "parent is the open span" true
                  (parent <> 0)
              | None -> Alcotest.fail "ctx lost inside a span")))

let test_emit_retroactive =
  isolated (fun () ->
      Telemetry.enable ();
      (* a queue wait clocked elsewhere lands with its measured times and
         its wire-carried identity intact *)
      Trace.emit ~cat:"net" ~name:"queue-wait" ~ts_us:5.0 ~dur_us:2.5
        ~trace:(7, 8, 9) ();
      match Trace.events () with
      | [ e ] ->
        Alcotest.(check string) "name" "queue-wait" e.Trace.ev_name;
        Alcotest.(check (float 1e-9)) "ts as measured" 5.0 e.Trace.ev_ts;
        Alcotest.(check (float 1e-9)) "dur as measured" 2.5 e.Trace.ev_dur;
        Alcotest.(check int) "trace id" 7 (int_arg e "trace_id");
        Alcotest.(check int) "span id" 8 (int_arg e "span_id");
        Alcotest.(check int) "parent id" 9 (int_arg e "parent_id")
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_merge_chrome () =
  let doc name =
    J.Obj
      [
        ( "traceEvents",
          J.List
            [
              J.Obj
                [
                  ("name", J.Str name); ("ph", J.Str "X"); ("pid", J.Int 1);
                  ("tid", J.Int 0);
                ];
            ] );
        ("displayTimeUnit", J.Str "ms");
      ]
  in
  let merged = Trace.merge_chrome [ doc "client"; doc "server" ] in
  match J.member "traceEvents" merged with
  | Some (J.List evs) ->
    Alcotest.(check int) "events concatenated" 2 (List.length evs);
    let pid e = get (J.to_int (get (J.member "pid" e))) in
    Alcotest.(check (list int)) "inputs re-homed to distinct pids" [ 1; 2 ]
      (List.map pid evs)
  | _ -> Alcotest.fail "merged document lost traceEvents"

(* ---------------- exporters ---------------- *)

let attack id =
  match
    List.find_opt (fun a -> a.Catalog.id = id) Pna_attacks.All.attacks
  with
  | Some a -> a
  | None -> Alcotest.failf "unknown attack %s" id

(* The `pna trace` acceptance test: drive a real scenario with telemetry
   on, export Chrome JSON, parse it back, and check the structure Perfetto
   relies on. *)
let test_chrome_export_parses_back =
  isolated (fun () ->
      Telemetry.enable ();
      let _ = Driver.run (attack "L13-ret") in
      let out = Fmt.str "%t" (fun ppf -> Trace.export_chrome ppf) in
      let json =
        match J.of_string (String.trim out) with
        | Ok j -> j
        | Error e -> Alcotest.failf "invalid Chrome JSON: %s" e
      in
      Alcotest.(check string) "displayTimeUnit" "ms"
        (get (J.to_str (get (J.member "displayTimeUnit" json))));
      let evs = get (J.to_list (get (J.member "traceEvents" json))) in
      let phase e = get (J.to_str (get (J.member "ph" e))) in
      List.iter
        (fun e ->
          let ph = phase e in
          Alcotest.(check bool) "known phase" true
            (List.mem ph [ "M"; "X"; "i" ]);
          ignore (get (J.to_str (get (J.member "name" e))));
          ignore (get (J.to_int (get (J.member "pid" e))));
          ignore (get (J.to_int (get (J.member "tid" e))));
          match ph with
          | "X" ->
            (* complete events carry ts and a non-negative duration *)
            ignore (get (J.to_float (get (J.member "ts" e))));
            Alcotest.(check bool) "dur >= 0" true
              (get (J.to_float (get (J.member "dur" e))) >= 0.0)
          | "i" ->
            Alcotest.(check string) "thread-scoped instant" "t"
              (get (J.to_str (get (J.member "s" e))))
          | _ -> ())
        evs;
      let names =
        List.filter_map (fun e -> J.to_str (get (J.member "name" e))) evs
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (Fmt.str "trace has %S" n) true
            (List.mem n names))
        [ "run"; "load"; "verdict"; "return_hijacked" ])

let test_jsonl_export_lines =
  isolated (fun () ->
      Telemetry.enable ();
      Trace.with_span "a" (fun () -> Trace.instant "b");
      let out = Fmt.str "%t" (fun ppf -> Trace.export_jsonl ppf) in
      let lines =
        List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' out)
      in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          match J.of_string l with
          | Ok (J.Obj _) -> ()
          | _ -> Alcotest.failf "bad JSONL line: %s" l)
        lines)

(* run spans carry the memory-counter deltas the Vmem layer collects *)
let test_run_span_args =
  isolated (fun () ->
      Telemetry.enable ();
      let _ = Driver.run (attack "L13-ret") in
      let run =
        List.find (fun e -> e.Trace.ev_name = "run") (Trace.events ())
      in
      let int_arg k =
        match List.assoc_opt k run.Trace.ev_args with
        | Some (Trace.Int v) -> v
        | _ -> Alcotest.failf "run span missing int arg %s" k
      in
      Alcotest.(check bool) "reads counted" true (int_arg "mem_reads" > 0);
      Alcotest.(check bool) "writes counted" true (int_arg "mem_writes" > 0);
      Alcotest.(check bool) "steps counted" true (int_arg "steps" > 0);
      match List.assoc_opt "scenario" run.Trace.ev_args with
      | Some (Trace.Str "L13-ret") -> ()
      | _ -> Alcotest.fail "run span missing scenario arg")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "telemetry",
    [
      t "jsonx: encode/parse round trip" test_jsonx_round_trip;
      t "jsonx: control chars escaped" test_jsonx_control_chars;
      t "jsonx: malformed input rejected" test_jsonx_rejects_garbage;
      t "jsonx: numbers; non-finite -> null" test_jsonx_numbers;
      t "metrics: counter incr + interning" test_counter_basics;
      t "metrics: type clash rejected" test_instrument_type_clash;
      t "metrics: gauge + histogram" test_gauge_and_histogram;
      t "metrics: snapshot buckets cumulative" test_snapshot_cumulative_buckets;
      t "metrics: Prometheus exposition format" test_prometheus_format;
      t "metrics: reset" test_metrics_reset;
      t "trace: disabled is a no-op" test_disabled_is_noop;
      t "trace: span nesting, instants, add_args" test_span_nesting;
      t "trace: span closed on exception" test_span_exception_safe;
      t "trace: ring overflow counts drops" test_ring_overflow_counts_drops;
      t "trace: ctx links nested spans into a tree" test_ctx_links_spans;
      t "trace: wire_ctx picks the innermost open span" test_wire_ctx;
      t "trace: retroactive emit keeps measured times + identity"
        test_emit_retroactive;
      t "trace: merge_chrome re-homes pids, keeps linkage args"
        test_merge_chrome;
      t "chrome export parses back (pna trace)" test_chrome_export_parses_back;
      t "jsonl export: one object per line" test_jsonl_export_lines;
      t "run span carries vmem deltas" test_run_span_args;
    ] )
