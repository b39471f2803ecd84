(** Statement-level execution profiling over the VM's [on_stmt]
    hook: which functions ran, how many statements of each kind, how much
    of the program text was exercised. Used by `pna_cli trace` and handy
    when debugging why an attack input didn't reach its placement. *)

module Ast = Pna_minicpp.Ast

type t = {
  per_func : (string, int) Hashtbl.t;  (** executed statements per function *)
  per_kind : (string, int) Hashtbl.t;
  mutable total : int;
}

let create () =
  { per_func = Hashtbl.create 8; per_kind = Hashtbl.create 8; total = 0 }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(** The [on_stmt] hook feeding this collector. *)
let hook t func stmt =
  t.total <- t.total + 1;
  bump t.per_func func;
  bump t.per_kind (Ast.stmt_kind stmt)

let collector () =
  let t = create () in
  (t, hook t)

(* static statement count of a function body, for coverage ratios *)
let static_stmts body =
  Ast.fold_stmts (fun acc _ -> acc + 1) (fun acc _ -> acc) 0 body

type func_row = {
  cf_name : string;
  cf_executed : int;  (** dynamic count: statements run, with repeats *)
  cf_static : int;  (** statements in the body *)
  cf_entered : bool;
}

(** Per-function report against the program's static shape. *)
let report t (prog : Ast.program) =
  List.map
    (fun fn ->
      let executed =
        Option.value (Hashtbl.find_opt t.per_func fn.Ast.fn_name) ~default:0
      in
      {
        cf_name = fn.Ast.fn_name;
        cf_executed = executed;
        cf_static = static_stmts fn.Ast.fn_body;
        cf_entered = executed > 0;
      })
    prog.Ast.p_funcs

let functions_entered t = Hashtbl.length t.per_func

(* -- per-statement bitmap --------------------------------------------- *)

(* The generator's coverage feedback wants statement *sites*, not kind
   totals: index every statement of the program (in [fold_program]
   order) and count hits per site. Sites are matched by physical
   identity — the VM hands back the very stmt values the AST
   holds, and structural equality would merge distinct-but-identical
   statements into one site. *)

type bitmap = {
  bm_sites : (string * Ast.stmt) array;  (** (function, stmt), program order *)
  bm_hits : int array;
}

let bitmap (prog : Ast.program) =
  let sites =
    List.concat_map
      (fun fn ->
        List.rev
          (Ast.fold_stmts
             (fun acc s -> (fn.Ast.fn_name, s) :: acc)
             (fun acc _ -> acc)
             [] fn.Ast.fn_body))
      prog.Ast.p_funcs
  in
  let bm =
    { bm_sites = Array.of_list sites; bm_hits = Array.make (List.length sites) 0 }
  in
  let hook fname stmt =
    (* linear scan over the site table: generated programs hold tens of
       statements, and physical equality is one word compare *)
    let n = Array.length bm.bm_sites in
    let rec find i =
      if i >= n then ()
      else
        let fn, s = bm.bm_sites.(i) in
        if s == stmt && fn = fname then
          bm.bm_hits.(i) <- bm.bm_hits.(i) + 1
        else find (i + 1)
    in
    find 0
  in
  (bm, hook)

let sites bm = Array.length bm.bm_hits
let hit_count bm idx = bm.bm_hits.(idx)
let site_label bm idx =
  let fn, s = bm.bm_sites.(idx) in
  Fmt.str "%s#%d:%s" fn idx (Ast.stmt_kind s)

let hit_sites bm =
  let acc = ref [] in
  for i = Array.length bm.bm_hits - 1 downto 0 do
    if bm.bm_hits.(i) > 0 then acc := i :: !acc
  done;
  !acc

let hits bm = List.length (hit_sites bm)
let reset bm = Array.fill bm.bm_hits 0 (Array.length bm.bm_hits) 0

let merge ~into bm =
  if Array.length into.bm_hits <> Array.length bm.bm_hits then
    invalid_arg "Coverage.merge: bitmaps cover different programs";
  let fresh = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if into.bm_hits.(i) = 0 then incr fresh;
        into.bm_hits.(i) <- into.bm_hits.(i) + c
      end)
    bm.bm_hits;
  !fresh

let pp ppf (t, prog) =
  Fmt.pf ppf "@[<v>%d statements executed across %d function(s)@," t.total
    (functions_entered t);
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-28s %6d executed (%d in body)%s@," r.cf_name r.cf_executed
        r.cf_static
        (if r.cf_entered then "" else "  [never entered]"))
    (report t prog);
  Fmt.pf ppf "by kind:@,";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.per_kind []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (k, v) -> Fmt.pf ppf "  %-14s %6d@," k v);
  Fmt.pf ppf "@]"
