(* Authoring a NEW attack with the library — one the paper only hints at:
   under multiple inheritance an object carries several vtable pointers
   (§3.8.2: "In case of multiple inheritance, there are more than one
   vtable pointers in a given instance"). We corrupt the SECOND one, which
   a defense that only guards offset 0 would miss.

     dune exec examples/custom_attack.exe
*)

open Pna_minicpp.Dsl
module Class_def = Pna_layout.Class_def
module Layout = Pna_layout.Layout
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Machine = Pna_machine.Machine
module Config = Pna_defense.Config
module O = Pna_minicpp.Outcome

(* class Reader  { virtual int read();  };
   class Writer  { virtual int write(); };
   class File : Reader, Writer { int fd; };       // two vptrs: @0 and @4
   class LogFile : File { int log[4]; };          // 16 extra bytes *)
let classes =
  [
    Class_def.v "Reader" ~methods:[ Class_def.virtual_method ~impl:"Reader::read" "read" ] [];
    Class_def.v "Writer" ~methods:[ Class_def.virtual_method ~impl:"Writer::write" "write" ] [];
    Class_def.v "File" ~bases:[ "Reader"; "Writer" ] [ ("fd", int) ];
    Class_def.v "LogFile" ~bases:[ "File" ] [ ("log", int_arr 4) ];
  ]

let vmeth name = func name ~params:[ ("this", ptr void) ] ~ret:int [ ret (i 1) ]

let program_ =
  program ~classes
    ~globals:[ global "f1" (cls "File"); global "f2" (cls "File") ]
    [
      vmeth "Reader::read";
      vmeth "Writer::write";
      func "File::ctor" ~params:[ ("this", ptr (cls "File")) ]
        [ set (arrow (v "this") "fd") (i 3) ];
      func "LogFile::ctor" ~params:[ ("this", ptr (cls "LogFile")) ] [];
      func "main"
        [
          expr (pnew (addr (v "f2")) (cls "File") []);
          (* overflow: LogFile over f1 reaches into f2 *)
          decli "lf" (ptr (cls "LogFile")) (pnew (addr (v "f1")) (cls "LogFile") []);
          set (idx (arrow (v "lf") "log") (i 0)) cin;
          set (idx (arrow (v "lf") "log") (i 1)) cin;
          set (idx (arrow (v "lf") "log") (i 2)) cin;
          (* the victim then writes through its Writer interface: the call
             dispatches through f2's SECOND vtable pointer *)
          decli "n" int (mcall (v "f2") "write" []);
          ret (v "n");
        ];
    ]

let () =
  (* inspect the layout first: File has vptrs at 0 and 4 *)
  let env = Interp.build_env program_ in
  Fmt.pr "%a@.@." Layout.pp (Layout.of_class env "File");
  Fmt.pr "%a@.@." Layout.pp (Layout.of_class env "LogFile");

  let m = Interp.load ~config:Config.none program_ in
  let f1 = Machine.global_addr_exn m "f1"
  and f2 = Machine.global_addr_exn m "f2" in
  let file_size = Layout.sizeof (Machine.env m) (Pna_layout.Ctype.Class "File") in
  Fmt.pr "f1 at 0x%08x, f2 at 0x%08x (File is %d bytes)@." f1 f2 file_size;

  (* LogFile's log[] starts at offset sizeof(File); log[k] aliases
     f2 + 4k. log[0] -> f2's Reader vptr, log[1] -> f2's Writer vptr. *)
  let fake_vtable = f1 + file_size + 8 (* = &log[2], attacker-controlled *) in
  let system_addr = Machine.function_addr m "system" in
  Machine.set_input ~ints:[ 0x51515151; fake_vtable; system_addr ] ~strings:[] m;
  Fmt.pr
    "attacker: log[1] := 0x%08x (fake vtable over f2's Writer vptr), \
     log[2] := &system@."
    fake_vtable;

  let o = Vm.run m (Vm.load program_) ~entry:"main" in
  Fmt.pr "@.outcome: %a@." O.pp_status o.O.status;
  List.iter (fun e -> Fmt.pr "  %s@." (Pna_machine.Event.to_string e)) o.O.events;
  match o.O.status with
  | O.Arc_injection { via = O.Vtable; symbol = "system"; _ } ->
    Fmt.pr "@.second-vptr subterfuge confirmed: the Writer-interface call \
            ran the attacker's target.@."
  | _ -> Fmt.pr "@.(unexpected outcome)@."
