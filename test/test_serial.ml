(* Tests for the wire format and the deserializing service. *)

open Pna_minicpp.Dsl
module Wire = Pna_serial.Wire
module Victim = Pna_serial.Victim
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome
module Vmem = Pna_vmem.Vmem

let le32_at s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let test_encode_student () =
  let w = Wire.student ~gpa:2.5 ~year:2012 ~semester:2 () in
  let s = Wire.encode w in
  Alcotest.(check int) "size" 20 (String.length s);
  Alcotest.(check int) "class id" Wire.student_id (le32_at s 0);
  Alcotest.(check int) "year" 2012 (le32_at s Wire.off_year);
  Alcotest.(check int) "semester" 2 (le32_at s Wire.off_semester)

let test_encode_grad () =
  let w = Wire.grad_student ~ssn:[| 7; 8; 9 |] ~courses:[ 1; 2 ] () in
  let s = Wire.encode w in
  Alcotest.(check int) "size" (36 + 8) (String.length s);
  Alcotest.(check int) "ssn[1]" 8 (le32_at s (Wire.off_ssn + 4));
  Alcotest.(check int) "count" 2 (le32_at s Wire.off_course_count);
  Alcotest.(check int) "course[1]" 2 (le32_at s (Wire.off_courses + 4))

let test_claimed_count_override () =
  let w = Wire.grad_student ~courses:[ 1 ] ~claimed_courses:100 () in
  Alcotest.(check int) "lying count" 100
    (le32_at (Wire.encode w) Wire.off_course_count)

let test_gpa_bit_exact () =
  let w = Wire.student ~gpa:3.9 () in
  let s = Wire.encode w in
  let bits = ref 0L in
  for k = 7 downto 0 do
    bits := Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code s.[Wire.off_gpa + k]))
  done;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.9 (Int64.float_of_bits !bits)

let service_program ~checked =
  program ~classes:Victim.classes
    ~globals:(Victim.pool_global :: Victim.state_globals)
    [
      Victim.deserialize_func ~checked;
      func "main"
        [
          decl "dgram" (char_arr 128);
          decli "len" int (call "recv" [ v "dgram"; i 128 ]);
          when_ (v "len" >: i 0) [ expr (call "deserialize" [ v "dgram" ]) ];
          ret (i 0);
        ];
    ]

let run_service ~checked payload =
  let prog = service_program ~checked in
  let m = Interp.load ~config:Config.none prog in
  Machine.set_input ~strings:[ payload ] m;
  (Vm.run m (Vm.load prog) ~entry:"main", m)

let test_benign_student_deserializes () =
  let o, m =
    run_service ~checked:false
      (Wire.encode (Wire.student ~gpa:3.25 ~year:2013 ~semester:1 ()))
  in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "service failed: %a" O.pp_status st);
  let pool = Machine.global_addr_exn m "pool" in
  Alcotest.(check (float 0.0)) "gpa landed" 3.25 (Vmem.read_f64 (Machine.mem m) pool);
  Alcotest.(check int) "year landed" 2013 (Vmem.read_i32 (Machine.mem m) (pool + 8));
  Alcotest.(check int) "served" 1
    (Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "served"));
  Alcotest.(check bool) "wire data is tainted in memory" true
    (Vmem.range_tainted (Machine.mem m) pool 16)

let test_benign_grad_overflows_silently () =
  (* even an honest NetGradStudent is 48 bytes in a 16-byte pool: the
     overflow exists regardless of malice — the paper's "logic error" *)
  let o, m = run_service ~checked:false (Wire.encode (Wire.grad_student ())) in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "service failed: %a" O.pp_status st);
  let pool = Machine.global_addr_exn m "pool" in
  Alcotest.(check bool) "bytes past the pool written" true
    (Vmem.range_tainted (Machine.mem m) (pool + 16) 8)

let test_checked_service_rejects_grad () =
  let o, m = run_service ~checked:true (Wire.encode (Wire.grad_student ())) in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "service failed: %a" O.pp_status st);
  Alcotest.(check int) "rejected" 1
    (Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "rejected"));
  let pool = Machine.global_addr_exn m "pool" in
  Alcotest.(check bool) "nothing past the pool" false
    (Vmem.range_tainted (Machine.mem m) (pool + 16) 16)

let test_truncated_datagram_harmless () =
  (* recv delivers fewer bytes than any valid datagram; the service reads
     zeros for the missing fields *)
  let o, _ = run_service ~checked:false "\001" in
  match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "service crashed on short datagram: %a" O.pp_status st

(* ---- decode: the defensive receiver ---- *)

let test_decode_student_roundtrip () =
  let w = Wire.student ~gpa:2.75 ~year:2014 ~semester:2 () in
  match Wire.decode (Wire.encode w) with
  | Ok w' ->
    Alcotest.(check int) "class id" w.Wire.class_id w'.Wire.class_id;
    Alcotest.(check (float 0.0)) "gpa" w.Wire.gpa w'.Wire.gpa;
    Alcotest.(check int) "year" w.Wire.year w'.Wire.year;
    Alcotest.(check int) "semester" w.Wire.semester w'.Wire.semester
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_decode_grad_roundtrip () =
  let w = Wire.grad_student ~ssn:[| 11; 22; 33 |] ~courses:[ 5; 6; 7 ] () in
  match Wire.decode (Wire.encode w) with
  | Ok w' ->
    Alcotest.(check (array int)) "ssn" w.Wire.ssn w'.Wire.ssn;
    Alcotest.(check (list int)) "courses" w.Wire.courses w'.Wire.courses;
    Alcotest.(check bool) "honest count" true (w'.Wire.claimed_courses = None)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_decode_preserves_the_lie () =
  let w = Wire.grad_student ~courses:[ 1; 2 ] ~claimed_courses:4000 () in
  match Wire.decode (Wire.encode w) with
  | Ok w' ->
    Alcotest.(check (list int)) "real words kept" [ 1; 2 ] w'.Wire.courses;
    Alcotest.(check bool) "lie reported" true
      (w'.Wire.claimed_courses = Some 4000)
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_decode_rejects_junk () =
  List.iter
    (fun s ->
      match Wire.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %d junk bytes" (String.length s))
    [ ""; "\003\000\000\000"; String.make 3 '\001'; String.make 21 '\001';
      Wire.encode (Wire.student ()) ^ "x" ]

let prop_decode_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wire: encode/decode round-trip"
    QCheck.(
      quad (int_bound 40) (pair (int_bound 3000) (int_bound 8))
        (triple (int_bound 999) (int_bound 999) (int_bound 999))
        (list_of_size (Gen.int_range 0 8) (int_bound 0xffffff)))
    (fun (gpa10, (year, semester), (s0, s1, s2), courses) ->
      let w =
        Wire.grad_student ~gpa:(float_of_int gpa10 /. 10.0) ~year ~semester
          ~ssn:[| s0; s1; s2 |] ~courses ()
      in
      match Wire.decode (Wire.encode w) with
      | Ok w' ->
        w'.Wire.gpa = w.Wire.gpa && w'.Wire.year = year
        && w'.Wire.semester = semester
        && w'.Wire.ssn = w.Wire.ssn
        && w'.Wire.courses = courses
        && w'.Wire.claimed_courses = None
      | Error _ -> false)

(* ---- perturbed datagrams at the victim: always a classified outcome ---- *)

let classified (o : O.t) =
  match o.O.status with
  | O.Exited _ | O.Crashed _ -> true
  | _ -> false

let test_every_truncation_classified () =
  let full = Wire.encode (Wire.grad_student ~courses:[ 1; 2; 3 ] ()) in
  for keep = 0 to String.length full do
    let o, _ =
      run_service ~checked:false (Wire.truncate_datagram ~keep full)
    in
    if not (classified o) then
      Alcotest.failf "keep=%d: unclassified %a" keep O.pp_status o.O.status
  done

let test_count_inflation_classified () =
  (* a wildly inflated count walks the copy loop off the segment: the
     unchecked service crashes like a SIGSEGV, the checked one rejects *)
  let d =
    Wire.inflate_count ~claimed:0x0fffffff
      (Wire.encode (Wire.grad_student ~courses:[ 1 ] ()))
  in
  let o, _ = run_service ~checked:false d in
  (match o.O.status with
  | O.Crashed _ | O.Timeout _ -> ()
  | st -> Alcotest.failf "unchecked: expected crash/DoS, got %a" O.pp_status st);
  let o, m = run_service ~checked:true d in
  (match o.O.status with
  | O.Exited 0 -> ()
  | st -> Alcotest.failf "checked: expected clean exit, got %a" O.pp_status st);
  Alcotest.(check int) "checked service rejected it" 1
    (Vmem.read_i32 (Machine.mem m) (Machine.global_addr_exn m "rejected"))

let prop_bit_flips_classified =
  QCheck.Test.make ~count:300 ~name:"victim: bit-flipped datagrams classified"
    QCheck.(pair (int_bound 1000) (int_range 1 255))
    (fun (pos, mask) ->
      let d =
        Wire.flip_byte ~pos ~mask
          (Wire.encode (Wire.grad_student ~courses:[ 1; 2; 3 ] ()))
      in
      let o, _ = run_service ~checked:false d in
      classified o)

(* ---- delivery tampering hook ---- *)

let test_tamper_hook () =
  let w = Wire.student () in
  Fun.protect
    ~finally:(fun () -> Wire.set_tamper None)
    (fun () ->
      Wire.set_tamper (Some (Wire.truncate_datagram ~keep:4));
      Alcotest.(check int) "tampered delivery" 4
        (String.length (Wire.deliver w)));
  Alcotest.(check int) "hook cleared" (Wire.size w)
    (String.length (Wire.deliver w))

(* ---- primitive codecs: the helpers everything above is built on ---- *)

let prop_le32_roundtrip =
  (* any int — including negatives — encodes its two's-complement low 32
     bits; rd32 reads back the unsigned view of exactly those bits *)
  QCheck.Test.make ~count:500 ~name:"wire: le32/rd32 round-trip (incl. negative)"
    QCheck.int
    (fun n ->
      let s = Wire.le32 n in
      String.length s = 4 && Wire.rd32 s 0 = n land 0xffffffff)

let prop_le64_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: le64/rd64 round-trip (incl. negative)"
    QCheck.int64
    (fun n -> Wire.rd64 (Wire.le64 n) 0 = n)

let prop_f64_roundtrip =
  (* bit-exact through the wire word, compared as bits so NaN passes *)
  QCheck.Test.make ~count:500 ~name:"wire: f64/rdf64 bit-exact round-trip"
    QCheck.float
    (fun x ->
      Int64.bits_of_float (Wire.rdf64 (Wire.f64 x) 0) = Int64.bits_of_float x)

let test_f64_special_values () =
  List.iter
    (fun x ->
      Alcotest.(check int64)
        (Fmt.str "%h survives the wire" x)
        (Int64.bits_of_float x)
        (Int64.bits_of_float (Wire.rdf64 (Wire.f64 x) 0)))
    [ nan; infinity; neg_infinity; -0.0; 0.0; -3.75; Float.max_float;
      Float.min_float; 4.9e-324 (* subnormal *) ]

let test_encode_rejects_unrepresentable_count () =
  (* a count the u32 word cannot carry must refuse at encode time, not
     alias through the le32 mask into a different lie *)
  List.iter
    (fun claimed ->
      let w = Wire.grad_student ~courses:[ 1 ] ~claimed_courses:claimed () in
      match Wire.encode w with
      | _ -> Alcotest.failf "encoded unrepresentable count %d" claimed
      | exception Invalid_argument _ -> ())
    [ -1; min_int; 0x1_0000_0000; max_int ];
  (* the extremes that do fit still encode *)
  List.iter
    (fun claimed ->
      let w = Wire.grad_student ~courses:[ 1 ] ~claimed_courses:claimed () in
      Alcotest.(check int)
        (Fmt.str "count %d carried" claimed)
        claimed
        (le32_at (Wire.encode w) Wire.off_course_count land 0xffffffff))
    [ 0; 0xffffffff ]

let prop_encode_size =
  QCheck.Test.make ~count:200 ~name:"wire: encoded size formula"
    QCheck.(list_of_size (Gen.int_range 0 16) (int_bound 1000))
    (fun courses ->
      let w = Wire.grad_student ~courses () in
      Wire.size w = 36 + (4 * List.length courses))

let prop_courses_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire: course words round-trip"
    QCheck.(list_of_size (Gen.int_range 1 8) (int_bound 0xffffff))
    (fun courses ->
      let s = Wire.encode (Wire.grad_student ~courses ()) in
      List.for_all2
        (fun j c -> le32_at s (Wire.off_courses + (4 * j)) = c)
        (List.init (List.length courses) Fun.id)
        courses)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "serial",
    [
      t "encode student" test_encode_student;
      t "encode grad student" test_encode_grad;
      t "claimed count override" test_claimed_count_override;
      t "gpa encodes bit-exactly" test_gpa_bit_exact;
      t "benign student request served" test_benign_student_deserializes;
      t "honest grad still overflows the pool" test_benign_grad_overflows_silently;
      t "checked service rejects oversize class" test_checked_service_rejects_grad;
      t "truncated datagram harmless" test_truncated_datagram_harmless;
      t "decode: student round-trips" test_decode_student_roundtrip;
      t "decode: grad round-trips" test_decode_grad_roundtrip;
      t "decode: inflated count preserved as the lie" test_decode_preserves_the_lie;
      t "decode: junk rejected" test_decode_rejects_junk;
      t "victim: every truncation prefix classified" test_every_truncation_classified;
      t "victim: count inflation classified both ways" test_count_inflation_classified;
      t "wire: delivery tamper hook" test_tamper_hook;
      t "wire: f64 special values survive" test_f64_special_values;
      t "wire: unrepresentable count refused at encode"
        test_encode_rejects_unrepresentable_count;
      QCheck_alcotest.to_alcotest prop_le32_roundtrip;
      QCheck_alcotest.to_alcotest prop_le64_roundtrip;
      QCheck_alcotest.to_alcotest prop_f64_roundtrip;
      QCheck_alcotest.to_alcotest prop_encode_size;
      QCheck_alcotest.to_alcotest prop_courses_roundtrip;
      QCheck_alcotest.to_alcotest prop_decode_roundtrip;
      QCheck_alcotest.to_alcotest prop_bit_flips_classified;
    ] )
