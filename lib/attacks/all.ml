(** The full attack catalogue, in paper order. *)

let attacks : Catalog.t list =
  [
    L03_string_object.attack;
    L03_string_object.misaligned;
    L05_remote_count.attack;
    L06_copy_loop.attack;
    L07_copy_ctor.attack;
    L08_indirect.attack;
    L10_internal.attack;
    L11_data_bss.attack;
    L12_heap.attack;
    L13_stack_ret.attack;
    L13_stack_ret.bypass;
    L13_stack_ret.inject;
    L14_bss_var.attack;
    L15_stack_var.attack;
    L15_stack_var.dos;
    L15_stack_var.skip;
    L16_member.attack;
    Vtable_subterfuge.bss;
    Vtable_subterfuge.stack;
    L17_funptr.attack;
    L18_varptr.attack;
    L19_array_stack.attack;
    L20_array_bss.attack;
    L21_leak_array.attack;
    L22_leak_object.attack;
    L23_memleak.attack;
    L23_memleak.oom;
    Ser_remote_object.grad_object;
    Ser_remote_object.course_count;
  ]

(* The step-budget grinders: correct, but each spends its whole step
   budget (a loop bound or the allocator) rather than finishing in
   microseconds, so timing and equivalence harnesses budget them apart. *)
let grinders = [ "L15-dos"; "L23-oom" ]

(* Dynamically registered scenarios (e.g. a generated fuzz corpus loaded
   at startup). The static catalogue always wins on id collision, so a
   registration can never shadow a paper attack. *)
let registered : (string, Catalog.t) Hashtbl.t = Hashtbl.create 64

let register (a : Catalog.t) =
  if not (List.exists (fun b -> b.Catalog.id = a.Catalog.id) attacks) then
    Hashtbl.replace registered a.Catalog.id a

let registered_ids () =
  Hashtbl.fold (fun id _ acc -> id :: acc) registered [] |> List.sort compare

let find id =
  match List.find_opt (fun a -> a.Catalog.id = id) attacks with
  | Some _ as r -> r
  | None -> Hashtbl.find_opt registered id

let hardened_ids =
  List.filter_map
    (fun a -> Option.map (fun _ -> a.Catalog.id) a.Catalog.hardened)
    attacks
