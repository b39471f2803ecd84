(** Every execution path against the recorded observations: the E19
    fixture's plain catalogue rows, the sanitized catalogue rows of four
    attacks and its fixed seeded genome sets — plain and sanitized,
    under a tight step deadline and under chaos fault plans — re-run on
    the VM down each path the gate drives for them, plus the fixture's
    own integrity: a missing, extra, unparsable or altered row fails the
    gate. The other sanitized catalogue rows and the seeded 1000-genome
    stream are checked by the E19 gate ([pna gate E19]). *)

module VmGate = Pna_gen.Vmgate

let prefix p key = String.starts_with ~prefix:p key

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check select () =
  let v = VmGate.run ~select () in
  if not v.VmGate.v_ok then Alcotest.failf "%a" VmGate.pp v;
  Alcotest.(check bool) "rows were checked" true (v.VmGate.v_checked > 0)

(* The fixture's deadline rows, and every other line. *)
let split_deadline () =
  List.partition (prefix "deadline:")
    (String.split_on_char '\n' Pna_gen.Vmgate_fixture.text)

let gate_on ?(select = prefix "deadline:") lines =
  VmGate.run ~fixture:(String.concat "\n" lines) ~select ()

let test_removed_row_fails () =
  match split_deadline () with
  | (removed :: kept_rows), rest ->
    let v = gate_on (rest @ kept_rows) in
    let key = List.hd (String.split_on_char ' ' removed) in
    Alcotest.(check bool) "gate fails" false v.VmGate.v_ok;
    Alcotest.(check (list string)) "the removed row is missing" [ key ]
      v.VmGate.v_missing
  | [], _ -> Alcotest.fail "fixture has no deadline rows"

let test_extra_row_fails () =
  match split_deadline () with
  | (row :: _ as rows), rest ->
    let extra = "deadline:gen-00000000" ^ String.sub row (String.index row ' ')
        (String.length row - String.index row ' ') in
    let v = gate_on (rest @ rows @ [ extra ]) in
    Alcotest.(check bool) "gate fails" false v.VmGate.v_ok;
    Alcotest.(check (list string)) "the extra row is reported"
      [ "deadline:gen-00000000" ] v.VmGate.v_extra
  | [], _ -> Alcotest.fail "fixture has no deadline rows"

let test_unparsable_fixture_fails () =
  let rows, rest = split_deadline () in
  let truncated =
    match rows with
    | r :: tl -> String.sub r 0 (String.length r / 2) :: tl
    | [] -> []
  in
  let v = gate_on (rest @ truncated) in
  Alcotest.(check bool) "truncated row fails" false v.VmGate.v_ok;
  Alcotest.(check bool) "reported as a fixture error" true
    (v.VmGate.v_error <> None);
  let headerless =
    List.filter (fun l -> not (String.starts_with ~prefix:"# format" l)) rest
  in
  let v = gate_on (headerless @ rows) in
  Alcotest.(check bool) "missing format version fails" false v.VmGate.v_ok

(* A recorded row every path observes, with its reads bumped by one:
   each of those paths must report the row as divergent. *)
let test_altered_row_fails () =
  let lines = String.split_on_char '\n' Pna_gen.Vmgate_fixture.text in
  let target l = prefix "set:" l && contains ":plain:" l in
  match List.find_opt target lines with
  | None -> Alcotest.fail "fixture has no plain set rows"
  | Some row ->
    let key, o =
      match VmGate.parse_row row with
      | Ok r -> r
      | Error m -> Alcotest.fail m
    in
    let bumped =
      VmGate.print_row key { o with VmGate.o_reads = o.VmGate.o_reads + 1 }
    in
    let v =
      gate_on ~select:(String.equal key)
        (List.map (fun l -> if l == row then bumped else l) lines)
    in
    let observing = [ "run"; "rerun"; "replica"; "byte" ] in
    Alcotest.(check bool) "gate fails" false v.VmGate.v_ok;
    Alcotest.(check (list (pair string (list string))))
      "every observing path diverges on accounting"
      (List.map (fun p -> (p, [ "accounting" ])) observing)
      (List.map
         (fun d -> (d.VmGate.dv_path, d.VmGate.dv_fields))
         (List.filter (fun d -> d.VmGate.dv_key = key) v.VmGate.v_diverged));
    let report = String.split_on_char '\n' (Fmt.str "%a" VmGate.pp v) in
    List.iter
      (fun p ->
        Alcotest.(check bool) ("the report names " ^ p) true
          (List.exists
             (fun l -> prefix key l && contains ("DIVERGES on " ^ p ^ " ") l)
             report))
      observing

let sanitized_sample k =
  prefix "cat:" k && contains ":san:" k
  && List.exists
       (fun id -> prefix ("cat:" ^ id ^ ":") k)
       [ "L12-heap"; "L13-ret"; "L18-varptr"; "L22-leakobj" ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "vm",
    [
      t "catalogue: engines agree plain"
        (check (fun k -> prefix "cat:" k && contains ":plain:" k));
      t "catalogue: engines agree sanitized on a sample"
        (check sanitized_sample);
      t "vm: engines agree on outcome, events and shadow verdict"
        (check (prefix "set:"));
      t "vm: a tight max_steps deadline trips at the same step"
        (check (prefix "deadline:"));
      t "vm: chaos-supervised runs agree attempt for attempt"
        (check (prefix "chaos:"));
      t "fixture: a removed row fails the gate" test_removed_row_fails;
      t "fixture: an extra row fails the gate" test_extra_row_fails;
      t "fixture: an unparsable fixture fails the gate"
        test_unparsable_fixture_fails;
      t "fixture: an altered row fails on every path" test_altered_row_fails;
    ] )
