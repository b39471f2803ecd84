(* Tests for the attack flight recorder: the bounded global ring, the
   per-run session, and the forensic bundle round-trip — a dumped bundle
   must name the same first corrupting access as the live sanitizer. *)

module Flight = Pna_flight.Flight
module J = Pna_telemetry.Jsonx
module Driver = Pna_attacks.Driver
module Catalog = Pna_attacks.Catalog
module San = Pna_sanitizer.Sanitizer

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let get = function Some v -> v | None -> Alcotest.fail "unexpected None"

let attack id =
  match
    List.find_opt (fun a -> a.Catalog.id = id) Pna_attacks.All.attacks
  with
  | Some a -> a
  | None -> Alcotest.failf "unknown attack %s" id

(* every test leaves the process-global ring empty *)
let isolated f () =
  Flight.reset ();
  Fun.protect ~finally:Flight.reset f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let dir_seq = ref 0

let with_tmp_dir f =
  incr dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "pna-flight-test-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* ---- the global ring ---- *)

let test_ring_bounds =
  isolated (fun () ->
      (* past the ring's fixed bound, whatever it is *)
      let n = 5000 in
      for i = 1 to n do
        Flight.note ~kind:"t" [ ("i", J.Int i) ]
      done;
      let es = Flight.entries () in
      let dropped = Flight.dropped () in
      Alcotest.(check bool) "bounded: some entries dropped" true (dropped > 0);
      Alcotest.(check int) "every note retained or counted as a drop" n
        (List.length es + dropped);
      (* the oldest entries are the ones dropped; order is by sequence *)
      Alcotest.(check (list int)) "newest retained, oldest first"
        (List.init (List.length es) (fun i -> dropped + i))
        (List.map (fun e -> e.Flight.e_seq) es);
      Alcotest.(check bool) "last note retained" true
        (List.assoc_opt "i" (List.nth es (List.length es - 1)).Flight.e_data
        = Some (J.Int n));
      Flight.reset ();
      Alcotest.(check int) "reset clears entries" 0
        (List.length (Flight.entries ()));
      Alcotest.(check int) "reset clears drops" 0 (Flight.dropped ()))

(* ---- session basics ---- *)

let test_session_steps () =
  let fs = Flight.start ~scenario:"s" ~config:"none" in
  Alcotest.(check bool) "no latch before any violation" true
    (Flight.first_violation fs = None);
  for _ = 1 to 5 do
    Flight.tick fs
  done;
  Alcotest.(check int) "steps counted" 5 (Flight.step fs)

(* a benign session still dumps a complete, parseable bundle *)
let test_dump_minimal =
  isolated (fun () ->
      with_tmp_dir @@ fun dir ->
      let fs = Flight.start ~scenario:"mini" ~config:"none" in
      Flight.tick fs;
      let bundle = Flight.dump ~dir ~status:"exited 0" fs in
      Alcotest.(check bool) "timeline written" true
        (Sys.file_exists (Filename.concat bundle "timeline.jsonl"));
      match Flight.load_verdict bundle with
      | Error e -> Alcotest.failf "load_verdict: %s" e
      | Ok v ->
        Alcotest.(check string) "status echoed" "exited 0"
          (get (J.to_str (get (J.member "status" v))));
        Alcotest.(check int) "steps echoed" 1
          (get (J.to_int (get (J.member "steps" v))));
        Alcotest.(check bool) "no first violation" true
          (J.member "first_violation" v = Some J.Null))

(* ---- forensic bundle round-trip ---- *)

(* the acceptance property behind `pna forensics`: the bundle's verdict
   names the same first corrupting access (statement site + faulting
   address) as the live sanitizer's first recorded violation *)
let test_forensic_bundle =
  isolated (fun () ->
      with_tmp_dir @@ fun dir ->
      let r, fl, bundle = Driver.run_forensic ~dir (attack "L10-internal") in
      let live =
        match r.Driver.violations with
        | v :: _ -> v
        | [] -> Alcotest.fail "hot attack recorded no violations"
      in
      (* the latch holds the first violation, immune to later volume *)
      (match Flight.first_violation fl with
      | Some f ->
        Alcotest.(check string) "latched site" live.San.v_site
          f.Flight.fv_violation.San.v_site;
        Alcotest.(check int) "latched addr" live.San.v_addr
          f.Flight.fv_violation.San.v_addr
      | None -> Alcotest.fail "latch empty after a violation");
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " written") true
            (Sys.file_exists (Filename.concat bundle f)))
        [
          "timeline.jsonl"; "events.jsonl"; "writes.jsonl"; "trace.json";
          "shadow.txt"; "verdict.json";
        ];
      (match Flight.load_verdict bundle with
      | Error e -> Alcotest.failf "load_verdict: %s" e
      | Ok v ->
        let fv = get (J.member "first_violation" v) in
        Alcotest.(check string) "bundle names the live site" live.San.v_site
          (get (J.to_str (get (J.member "site" fv))));
        Alcotest.(check int) "bundle names the live address" live.San.v_addr
          (get (J.to_int (get (J.member "addr" fv))));
        (* taint provenance: every cited write overlaps the corrupted
           range *)
        match J.member "provenance" fv with
        | Some (J.List (_ :: _ as ws)) ->
          List.iter
            (fun w ->
              let addr = get (J.to_int (get (J.member "addr" w))) in
              let len = get (J.to_int (get (J.member "len" w))) in
              Alcotest.(check bool) "write overlaps corrupted range" true
                (addr < live.San.v_addr + live.San.v_len
                && addr + len > live.San.v_addr))
            ws
        | _ -> Alcotest.fail "no provenance in verdict");
      (* the narrative reconstructs from the bundle directory alone *)
      let out = Fmt.str "%a" Flight.report bundle in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Fmt.str "report mentions %S" sub) true
            (contains ~sub out))
        [ "forensic timeline"; "L10-internal"; "first corrupting access" ])

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "flight",
    [
      t "global ring: bounded, drops counted, resettable" test_ring_bounds;
      t "session: steps tick, latch starts empty" test_session_steps;
      t "benign dump: complete bundle, null first violation"
        test_dump_minimal;
      t "forensic bundle matches the live first corrupting access"
        test_forensic_bundle;
    ] )
