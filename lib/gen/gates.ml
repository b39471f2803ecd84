(** The gate registry: one entry per EXPERIMENTS.md section, E1–E19 in
    order (E2 covers E3), behind [pna gate <ID>...|all]. E1–E16 and E18
    are {!Pna.Experiments.gates}; E17 and E19 are defined here, the one
    library that sees both halves. Each gate runs at one fixed
    size — the largest any caller used — so no caller checks less. *)

module E = Pna.Experiments

let e17 =
  E.gate "E17"
    "Generative corpus: two seed-42 1000-scenario campaigns agree to the \
     byte, no unclassified oracle crash, every divergence ships as a \
     minimized reproducing genome."
    (fun () -> Gate.run ()) Gate.pp
    (fun g -> g.Gate.e_ok)

let e19 =
  E.gate "E19"
    "Every execution path (the recorded run, a rerun on the dirtied \
     prepared machine, a thawed replica, the per-byte path, and the \
     rewinds of both machines) reproduces the recorded fixture."
    (fun () -> Vmgate.run ()) Vmgate.pp
    (fun v -> v.Vmgate.v_ok)

let number (g : E.gate) =
  int_of_string (String.sub g.E.id 1 (String.length g.E.id - 1))

let all =
  List.stable_sort
    (fun a b -> compare (number a) (number b))
    (E.gates @ [ e17; e19 ])

(* The gates [ids] names, in registry order; ["all"] names every gate.
   An unknown id is an error that lists the valid ones. *)
let select ids =
  let known id =
    id = "all" || List.exists (fun (g : E.gate) -> g.E.id = id) all
  in
  match List.filter (fun id -> not (known id)) ids with
  | [] ->
    Ok
      (List.filter
         (fun (g : E.gate) -> List.mem "all" ids || List.mem g.E.id ids)
         all)
  | unknown ->
    Error
      (Fmt.str "unknown gate %s (valid: %s, all)" (String.concat ", " unknown)
         (String.concat ", " (List.map (fun (g : E.gate) -> g.E.id) all)))
