(** Statement-level execution profiling over the VM's [on_stmt]
    hook: which functions ran, how many statements of each kind. *)

type t = {
  per_func : (string, int) Hashtbl.t;
  per_kind : (string, int) Hashtbl.t;
  mutable total : int;
}

val create : unit -> t

val hook : t -> string -> Pna_minicpp.Ast.stmt -> unit
(** Feed this to {!Pna_minicpp.Vm.run}'s [on_stmt]. *)

val collector : unit -> t * (string -> Pna_minicpp.Ast.stmt -> unit)
(** A fresh collector and its hook, in one call. *)

type func_row = {
  cf_name : string;
  cf_executed : int;  (** dynamic count, with repeats *)
  cf_static : int;  (** statements in the body *)
  cf_entered : bool;
}

val report : t -> Pna_minicpp.Ast.program -> func_row list
val functions_entered : t -> int
val pp : Format.formatter -> t * Pna_minicpp.Ast.program -> unit

(** {1 Per-statement hit counts}

    Site-level coverage for the scenario generator's feedback loop: every
    statement of the program gets an index (in [fold_program] order,
    matched by physical identity), and the hook counts executions per
    site. *)

type bitmap

val bitmap : Pna_minicpp.Ast.program -> bitmap * (string -> Pna_minicpp.Ast.stmt -> unit)
(** A zeroed bitmap over the program's statements plus the [on_stmt]
    hook that feeds it. *)

val sites : bitmap -> int
(** Static statement count the bitmap covers. *)

val hits : bitmap -> int
(** Distinct sites with a nonzero count. *)

val hit_count : bitmap -> int -> int
(** Executions of one site. @raise Invalid_argument on a bad index. *)

val hit_sites : bitmap -> int list
(** Indices with nonzero counts, ascending. *)

val site_label : bitmap -> int -> string
(** Stable ["func#idx:kind"] label for feature strings. *)

val reset : bitmap -> unit
(** Zero every count, keeping the site table. *)

val merge : into:bitmap -> bitmap -> int
(** Add [bm]'s counts into [into]; returns how many sites lit up for the
    first time. @raise Invalid_argument when the site tables differ in
    size (bitmaps of different programs). *)
