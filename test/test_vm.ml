(** The bytecode engine against the recorded tree-walker: the E19
    fixture's plain catalogue rows and its fixed seeded genome sets —
    plain and sanitized, under a tight step deadline and under chaos
    fault plans — re-run on the VM, plus the fixture's own integrity: a
    missing, extra or unparsable row fails the gate. The sanitized
    catalogue rows and the seeded 1000-genome stream are checked by the
    E19 [vmgate]. *)

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

let gate_on lines =
  VmGate.run ~fixture:(String.concat "\n" lines) ~select:(prefix "deadline:")
    ()

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

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "vm",
    [
      t "catalogue: engines agree plain"
        (check (fun k -> prefix "cat:" k && contains ":plain:" k));
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
    ] )
